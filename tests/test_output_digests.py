"""Pinned output bytes of the five stages.

The stages run in-process on the benchmark's small pipeline config
(``corpus.circuits = 30``, ``corpus.patterns = 64``, ``model.iterations =
50``, seed 3), and every file they write is compared by sha256 against the
digests below.  ``model.txt`` is pinned without its ``theta`` line: the last
bits of ``theta`` depend on the BLAS thread count, which no other line and
no CSV does.  A change that moves an output byte on purpose re-takes these
digests (``sha256sum`` of each file, by its path under the out dir, in
sorted order) and says in CHANGES.md which files changed and why.
"""

import hashlib
import io
from contextlib import redirect_stdout

from testtrim.cli import main
from testtrim.config import RunConfig, save_config

STAGES = ("generate", "train", "evaluate", "oracle-eval", "sweep")

PINNED = """\
e59ee2e02048e59262cedd3213d06e4021f52bd847749c5ed02cc9b7892d3717  beta_weights.csv
ebcaa1143d15a021598cbc348699da4258dc1101c87fa9a55f360b7f3ba8c0e7  config.txt
491ad6ba6dba917d68bb48af058adfb751e0e2872ffd8e1b76da0b4f83161cd8  dataset.csv
c15fc43d4df749fdb8850d37024fb56784db0d58799ccb657f58f99f39dc0faa  dicts/c000.dict
c40591b858be1a5abbbfcf6b06975dc23683d11bb919d2d5aac0a2e252d103a3  dicts/c001.dict
605bfffd9c9be4785acd44f65d2ef9b29380fbafa99b39fcc03a3c3447b97c94  dicts/c002.dict
e7498dec477507222057f2db50331e09e68baabaf0f0e8ccba1de5a536595b39  dicts/c003.dict
f585ed17c759f4d7c6fe863318cdc189680d7a65229673d84090fa4dfdfa5ef3  dicts/c004.dict
02df95f0f23bf1fcbc630bda2777252b45488105294e0214eebc03bc1f4d818d  dicts/c005.dict
9a43a0fe1ca20049581e494dd10b543ab215a0068d45582e64bb3b004ed7b6a7  dicts/c006.dict
56cfd441312e48ef313dbcbdbe137e6a96b45bbaef3717f6fbb993fe3a3af953  dicts/c007.dict
b380d5bf0e69d2b6603e44da2e32e826d52525da9661f52e7301e83f73c75cac  dicts/c008.dict
1083c27caf7781fd07d44babb4f54e0f5a0129a710659075e707fdabff040fd7  dicts/c009.dict
0b379aedbc90dacd941633d933a5bc9f1880a2920b77f0d0128694dbddfa0760  dicts/c010.dict
ab75379b789af33f6e0a24c18d9e77a7dd1cb355d643e8d889eff111ea5c8e69  dicts/c011.dict
3540ad96d1050a28c5134919fbc4fa6608ae91241fe554c1075beff2f9db0de5  dicts/c012.dict
acbf8861d2316b58281e66d126faf0348c047674ecb82ea25918111e0b0f9d13  dicts/c013.dict
cb8e121028f5af2041a8fff25e0179f8d5b8618a769506442401177433a6723b  dicts/c014.dict
4fe42f0054ac33d8c4eab906b87733774dc1d4bb00964cabc8a507b669db6c2a  dicts/c015.dict
a22306b8d2035056765fef55a9abf0ccdd2127ffe253d825c6fda1587830c7ea  dicts/c016.dict
96da1869387beb6220050f26c8029be67ce709fab40076281a1551ee41f18ea5  dicts/c017.dict
75684fe34bda1fdce9bff5694eeb007ee3933bc25274119eff00faf6172fc148  dicts/c018.dict
6119e34a73097301f3325cad7c5506bbd541bf54e0ba053cadd86dc23b37d18d  dicts/c019.dict
57989116acb82ce2c411b00fc36e5248a0447b0f0d7619a2f3f5033c222db8b8  dicts/c020.dict
e16b3774ff8d7bae1b0a3e1610c93b3ed924b4fa8af712223918e20f6a10816d  dicts/c021.dict
3751a81714dbb6ba7027bc392580d25995452373604b9ae24b88a6e2cfc9e7a9  dicts/c022.dict
8d45a1e3a287adcde6644431c42a7aa30302b3bdfc4697602896250780501284  dicts/c023.dict
9742f644bf38694b09cc57b5a2f59d34f856cd38a484ff488a5351eae35b8da0  dicts/c024.dict
a31711a790dbd757a1c561b3aa62b21be1fd4864e8ceab2a797f4a795e00c60a  dicts/c025.dict
73b655173d3d4e444a11a82cf9b91f1e9f8b5437a9cfe227086e34c0c4fcaa3a  dicts/c026.dict
cb5db0733f3ee1738dd7e076b5c85333e6d31e206f3115ec17cbffb1a1c2f6e8  dicts/c027.dict
048855be26718c2202d79e6dcea6fb1999a32ae4e264ea6d80c75959132501a1  dicts/c028.dict
25025920f807446c34e350a8e788030f0f64e8ce095ce4855c11fcbc452cd0ff  dicts/c029.dict
f5af04fc0cf4256ddc5a761a23805e3121af1bb163e548324ea1fe7bfcaf6167  learning_curve.csv
526653abe664b8624c81fcee018417520e63f28c420910a66dab20f518ebad8d  model.txt
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
3ee4d34ef862571690927084b0f614b993bf9fee73fb792e8af30a92f423e2e1  traces.csv
"""


def _pinned() -> dict[str, str]:
    return {name: digest for digest, name in (line.split() for line in PINNED.splitlines())}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name == "model.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"theta "))
    return hashlib.sha256(data).hexdigest()


def test_stage_outputs_match_pinned_digests(tmp_path):
    config = tmp_path / "config.txt"
    save_config(RunConfig(corpus_circuits=30, corpus_patterns=64, model_iterations=50),
                config)
    out = tmp_path / "run"
    with redirect_stdout(io.StringIO()):
        for stage in STAGES:
            assert main([stage, "--config", str(config), "--out", str(out),
                         "--seed", "3"]) == 0, stage
    written = {path.relative_to(out).as_posix(): _digest(path)
               for path in sorted(out.rglob("*")) if path.is_file()}
    pinned = _pinned()
    hint = "; an intended output change updates PINNED and is recorded in CHANGES.md"
    assert sorted(written) == sorted(pinned), \
        f"files written differ from the pinned set{hint}"
    for name, digest in pinned.items():
        assert written[name] == digest, f"{name} differs from its pinned sha256{hint}"
