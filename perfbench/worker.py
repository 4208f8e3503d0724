"""Child-process side of the benchmark; ``run.py`` starts one per job.

    worker.py host                      print host facts as JSON
    worker.py netlists DIR SEED         write the corpus-scale netlists
    worker.py corpus SPEC RESULT        time build_corpus, check it, write JSON
    worker.py stage STAGE RESULT ARG..  one traced ``testtrim`` CLI stage

Each job runs in its own process so that its peak RSS and its imports are
its own, as for a user's CLI call.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

START = time.perf_counter()

from tracer import Tracer  # noqa: E402  (after START: the stage span covers imports)

ROOT = Path(__file__).resolve().parent.parent

# The ISCAS-size user-netlist case: gate counts and shape of the scale corpus.
SCALE_GATES = (1000, 3000)
SCALE_INPUTS = 24
SCALE_P_UNREAD = 0.5


def host() -> None:
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": threads,
    }))


def netlists(out_dir: str, seed: int) -> None:
    import random

    from testtrim.generator import random_circuit
    from testtrim.netlist import format_bench

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for gates in SCALE_GATES:
        rng = random.Random(f"perfbench-scale:{seed}:{gates}")
        circuit = random_circuit(f"g{gates}", rng, min_inputs=SCALE_INPUTS,
                                 max_inputs=SCALE_INPUTS, min_gates=gates,
                                 max_gates=gates, p_unread=SCALE_P_UNREAD)
        (out / f"g{gates}.bench").write_text(format_bench(circuit))


def load_oracles():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus(spec_path: str, result_path: str) -> None:
    from checks import check_corpus
    from testtrim.config import RunConfig
    from testtrim.corpus import build_corpus
    from testtrim.netlist import format_bench

    spec = json.loads(Path(spec_path).read_text())
    cfg = RunConfig(**spec["config"])
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
        build_corpus = sys.modules["testtrim.corpus"].build_corpus
    t0 = time.perf_counter()
    built = build_corpus(cfg)
    corpus_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()

    if cfg.corpus_netlist_dir is not None:
        texts = {p.stem: p.read_text() for p in Path(cfg.corpus_netlist_dir).glob("*.bench")}
    else:
        texts = {c.name: format_bench(c) for c in built.circuits}
    attempted, failures = check_corpus(built, texts, load_oracles(), cfg.corpus_seed)
    Path(result_path).write_text(json.dumps({
        "corpus_s": corpus_s,
        "attempted": attempted,
        "failures": failures,
        "trace": tracer.summary() if tracer else None,
    }))


def stage(name: str, result_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    root = tracer.open(f"cli.{name}")
    tracer.spans[root][1] = START
    tracer.install()
    cli = sys.modules["testtrim.cli"]
    code = cli.main(argv)
    tracer.close(root)
    tracer.uninstall()
    Path(result_path).write_text(json.dumps(tracer.summary()))
    return code


def main(argv: list[str]) -> int:
    job = argv[0]
    if job == "host":
        host()
    elif job == "netlists":
        netlists(argv[1], int(argv[2]))
    elif job == "corpus":
        corpus(argv[1], argv[2])
    elif job == "stage":
        return stage(argv[1], argv[2], argv[3:])
    else:
        raise SystemExit(f"unknown job {job!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
