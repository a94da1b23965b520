"""Golden bytes of the seeded studies: `experiment fig2` and `fig3` output.

The hashes pin every byte of the curve files at fixed seeds and small
replicate counts, so a change to sampling order, substream use, scoring or
serialization shows up here even when each value stays plausible.
"""

from __future__ import annotations

import hashlib

from depscore.cli import main

FIG2_SHA256 = {
    "fig2_n25.tsv": "5d1c3109ecfe2abd6b11ba3871984833d827f1e80627052e0613db608feff76b",
    "fig2_n100.tsv": "9d141d453c20b95ec87a9a95f0983069adeca957bc52c25310c4271f8af90109",
    "fig2_n500.tsv": "3ef7f05eea4b442207935852bfa32e79e8048683933416f150cf4a0997844bb0",
}
FIG3_SHA256 = "11e9c6076987f55d30d8fe1778ae0a69c44fa55b48afa72f10372171705caf75"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fig2_golden_bytes(tmp_path, capsys):
    code = main(["experiment", "fig2", "--seed", "11", "--replicates", "3",
                 "--out", str(tmp_path / "fig2.tsv")])
    capsys.readouterr()
    assert code == 0
    assert {p.name: sha256(p) for p in tmp_path.glob("fig2_n*.tsv")} == FIG2_SHA256


def test_fig3_golden_bytes(tmp_path, capsys):
    out = tmp_path / "fig3.tsv"
    code = main(["experiment", "fig3", "--seed", "11", "--replicates", "2",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert sha256(out) == FIG3_SHA256
