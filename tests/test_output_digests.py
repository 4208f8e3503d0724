"""Pinned output bytes of the five stages.

The stages run in-process on the benchmark's small pipeline config
(``corpus.circuits = 30``, ``corpus.patterns = 64``, ``model.iterations =
50``, seed 3), and every file they write is compared by sha256 against the
digests below.  ``model.txt`` is left out: the last bits of its ``theta``
depend on the BLAS thread count, which no CSV does.  A change that moves an
output byte on purpose re-takes these digests (``sha256sum`` of each file,
by its path under the out dir, in sorted order) and says in CHANGES.md
which files changed and why.
"""

import hashlib
import io
from contextlib import redirect_stdout

from testtrim.cli import main
from testtrim.config import RunConfig, save_config

STAGES = ("generate", "train", "evaluate", "oracle-eval", "sweep")

PINNED = """\
e59ee2e02048e59262cedd3213d06e4021f52bd847749c5ed02cc9b7892d3717  beta_weights.csv
03604c60387ccd7086a1a444ac70209a34ae3daba213d3ba9b69c0fdd9e7d5a5  config.txt
491ad6ba6dba917d68bb48af058adfb751e0e2872ffd8e1b76da0b4f83161cd8  dataset.csv
5655be706beccaac6da4cfc510ec21d1adb0464779b852209cdeba9384c6ec33  dicts/c000.dict
11f52bb0b7e7d4b47ce6a3ea33d743b32e150b00925b4a663a6e076921613328  dicts/c001.dict
eef9d5b5394d135471158d8a1d46473025a331f1c0a5cfaf2751b1d2faea19d0  dicts/c002.dict
89a4676f6b0b7b2644497443de855cf6179f1c10b6ad7fdf86199c05ceb75807  dicts/c003.dict
596309eed17640f4a47cb47257a4ca87196c01578158bd4162220f78ce94f288  dicts/c004.dict
bf12627ea43c61e649b1e8a0736b43bbfb1d763af2446f1f38fa5ea9b524ec93  dicts/c005.dict
45395404bdfcdce64388544dd3c765edf6ccfbe9be505496491ba772b2f169ab  dicts/c006.dict
9d1cd87b6b446d4cf37c3e8b086f1682cf81ab07af3d84f93a355614657f9923  dicts/c007.dict
3c1f7789c8cf6c5b2bfc018be99652ff7587091dbb6b02ae9ba452fb475c9174  dicts/c008.dict
c1ea403b46158d91a274283cbffb3f8ee962b1af89d0e4de16c774aca9a74d89  dicts/c009.dict
9baa2b071e28a4635e3ca2e6fc9e706f98ca7788c856f46050f285a9bbcc721b  dicts/c010.dict
35401049c8e7f405e31cb694938bc07035cf135a207c2920504ee6f53e5c655c  dicts/c011.dict
dcbbc81b3d780f76d0d30f4f3ec4cddc0e81e8ca89e91cd12e34c46de2032293  dicts/c012.dict
eab75a5d8c19aebc81266101aeca80a9066e7edf13cbee9c883d95b3bce38b47  dicts/c013.dict
92628f7f530213d4bf290de8f5df73c21b3867d9cdddef781ff8a560f1161594  dicts/c014.dict
87f22717a878b17255bd69c850e135ad0410750a7f3c26f341a1984ab2da774a  dicts/c015.dict
4c9c18922d515317fc9528f587a25e5d5a4f01060aa9d94dedf4708955c8850b  dicts/c016.dict
21837346b47f9a88d38b1205d5aa150dd91c51c41538843f678393e287fdd647  dicts/c017.dict
97ff08e65948d595b1d3913ad75221014206cb9b2d9d73bcce447470e21e48f9  dicts/c018.dict
11f0f4fb239c661d4fdadee4f4fca2386daa6f1c4e63a9ed89ee9c7a8099b3e7  dicts/c019.dict
05b347977d8f86a0ed001ba0002dc44aa9e074dc67fcf98bb18374a5caaec5bb  dicts/c020.dict
2528f39bb042325c5f97437076762de0b2e15e02ab0be401c4bbb0a4fc69d628  dicts/c021.dict
79c8f1b6f0f7b6e88a52bc44976f7b52b0aa0fb9c2b2fe3f0a637c8e4cad6e2e  dicts/c022.dict
6516d7651b62c3d40def3bc39c9087c0503602d8589b6af95725a01d78da3957  dicts/c023.dict
2a758e8a2ac457abddc9a8648956d64d9d1ece78d23d316b0581ff72b8d01d1c  dicts/c024.dict
fdcc30cabbe5157a60bda05ffcdfb2506883fd052e08b4ab9cd02f9696058833  dicts/c025.dict
eb66b465a0bb534eec5c6215238eadbd94f08746d3ac6141b48e4ec353e0e5f4  dicts/c026.dict
077f4419b162866960f7caebc7c0e456dde0463a6926f0b0dd7bcd1c6fc38385  dicts/c027.dict
3c622b6b27eb89e24295fd39d4a956f6035c3d6792d6f0152db387e9715238a5  dicts/c028.dict
56198261d7dbe6f4aa76861c7763eb94ebae899e56313019297535124a569852  dicts/c029.dict
f5af04fc0cf4256ddc5a761a23805e3121af1bb163e548324ea1fe7bfcaf6167  learning_curve.csv
d938c02d49ef37b3f0a8b4d90734e81da6f54fbdb319123e39cee98bcd638ce2  netlists/c000.bench
dab1dbf926435af476ac769d63bca42f1d2a6ec7eea9a5def1dd85ac26a31679  netlists/c001.bench
ba71f627f8871abc6708a10ad293e489e0a31085696334b70afc46a3bd5f5807  netlists/c002.bench
18d9c820c75b0459ecc37113c2b93622204fadd71078d605736a01d51858d377  netlists/c003.bench
e28b25a1ab61ac3dea8724c2b67d65bf24531e153c813688f98ba56210bc3ed7  netlists/c004.bench
397d7a80930e4cf7e5cb96d576ddce23797f4d69f2981a30423b6961efb03a59  netlists/c005.bench
245ef27ae208e98d44168daa69474e658a2c1bc17d05c32c731394149434cf98  netlists/c006.bench
863b236814eaf706fd56d896d3e93e20f31f1960c6d4ffd4976cf71e6aa84b8e  netlists/c007.bench
fb0cf93c1505edbb02a80bde4fb43f775c125f3809c2733b6bcfcdc22bd61d5c  netlists/c008.bench
29c195fd7791b2e1b6563dea1c2a4e82b2d78631710d30da620abd149eb0536b  netlists/c009.bench
6cd9b94d91837984ef9dc4b337a9659a70225857f0f3351981d4b323e6981f75  netlists/c010.bench
9f996d3737a66892745eb8c4be7c9498a07a508f893ec58f6077cbd5fafdbdaa  netlists/c011.bench
e17f0a46892a9dde5e5cd1654e14e41543406ef55243bb753c02482eeef7781e  netlists/c012.bench
728010e260bbf393beb25e4ad56511867fdd3cb0e9c25dcb8088530eafe05fc1  netlists/c013.bench
b5242439552a54bae53736cd9d6c24461fcb995149442ea8fc68938285048891  netlists/c014.bench
49b31b9d2f27dc48cc04df35d5c0bc4611c8c94f0f1c65a235357cb6a6301850  netlists/c015.bench
3f86d7671278e8bbd6db25874359317c0fa19134899d63ecc38e5cea0d32da78  netlists/c016.bench
1a6363f6099e53502169b1f512ace44a584a5dfac63fe5ffc2031c17aeb7adae  netlists/c017.bench
007930915ead4505d91f591850e5533107833d0bbec86be6964b7b41365f9c56  netlists/c018.bench
92788527adabd7cc9bb6975e2799e48873ba18dd92175de4def757d064c09943  netlists/c019.bench
915d88c404d2d35649f383bb855a4e38dfdabd8c2be3ebe95e6c3c40a49c26b3  netlists/c020.bench
0c653b697e2a7bf3938d58df64bdc7ac92de8a0f916b6db01d5b43dbdb240d62  netlists/c021.bench
4e3bced0190df40545bec6087baed5b7100576ccbf852a661f1217ae440ce31b  netlists/c022.bench
cbed31a7b445a3a91c9a98a3861f0a7439e45255cefb41c7cf1b5710a8948b9f  netlists/c023.bench
4007f2d54c11accc7513cc56b4eee9f2d38062aa5263394a5e71b7ed612613f2  netlists/c024.bench
4bad7da8adf28d367bc691ff9859a25ecd2e97dfb1121570719a6f976d22b104  netlists/c025.bench
7c7daa14c41de64d5cb2668830f1ac4b29bbb248cb6db2bdda38c9a568925513  netlists/c026.bench
6f73247befd9d6340ffb96f46b123b6d47f1b5406ce6eef80123b327cb56dd17  netlists/c027.bench
bf47729333cdfbc922bb6071c5596478a729d4e708d332f1447b09e965b58521  netlists/c028.bench
2f64711d366c9a156c1fc65be7323ac0842f2ec662c6b0f43de00cc9f97be12b  netlists/c029.bench
26d87fc6500ba59884bbd5e2974c08f1738330e6fb6f0e1efbd89a816c6600bb  oracle_report.csv
e23ecc88cf32024351424eacb31795b4fa87b1bc40330564264a0c2074d69c6a  oracle_summary.csv
f730e7601e8b3e4bf6e6beac9f347b4f176a4a850def7d0da6b5af198f454312  report.csv
212547868bc5388dc3d34b290971a8a5e55c687cb5fa7698a7c88e7fc20674c0  summary.csv
e3819be954a0ac4a886d7d8ddecc55c4f1c935ec24fcd07b03f1ad6b8b2e03c1  sweep_alpha.csv
72f1997516ac3eac2d14c37e9e6c63597ebdf5590ad2555dc069935253e7417b  traces.csv
"""


def _pinned() -> dict[str, str]:
    return {name: digest for digest, name in (line.split() for line in PINNED.splitlines())}


def test_stage_outputs_match_pinned_digests(tmp_path):
    config = tmp_path / "config.txt"
    save_config(RunConfig(corpus_circuits=30, corpus_patterns=64, model_iterations=50),
                config)
    out = tmp_path / "run"
    with redirect_stdout(io.StringIO()):
        for stage in STAGES:
            assert main([stage, "--config", str(config), "--out", str(out),
                         "--seed", "3"]) == 0, stage
    written = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*"))
               if path.is_file() and path.name != "model.txt"}
    pinned = _pinned()
    hint = "; an intended output change updates PINNED and is recorded in CHANGES.md"
    assert sorted(written) == sorted(pinned), \
        f"files written differ from the pinned set{hint}"
    for name, digest in pinned.items():
        assert written[name] == digest, f"{name} differs from its pinned sha256{hint}"
