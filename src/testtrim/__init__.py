"""testtrim: stuck-at fault diagnosis corpora and learned test-termination policies."""

from .netlist import BenchParseError, Circuit, evaluate, format_bench, parse_bench
from .faultsim import (Fault, FaultDictionary, build_fault_dictionary,
                       enumerate_faults, exhaustive_patterns, random_patterns,
                       simulate_faulty)
from .diagnosis import (DiagnosisTrace, UndiagnosableFaultError, compute_labels,
                        trace_diagnosis)
from .dataset import (Dataset, Standardizer, dataset_from_traces, split,
                      standardize_fit_apply)
from .models import (KernelLogisticModel, LinearModel, TrainConfig,
                     fit_kernel_logistic, fit_penalized_linear,
                     logistic_cost_grad, predict_linear, predict_prob, rbf_map)
from .evaluation import (OracleScorer, TerminationPolicy, TerminationReport,
                         evaluate as evaluate_policy, select_tau)
from .config import RunConfig
from .corpus import Corpus, build_corpus, split_corpus

__version__ = "0.1.0"
