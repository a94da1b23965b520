"""Golden bytes of the seeded studies (`experiment fig2` and `fig3`) and of
`rank` and `measure` on a seeded dataset.

The hashes pin every byte of the curve files at fixed seeds and small
replicate counts, and of the ranking and report files of a dataset the test
writes, so a change to sampling order, substream use, ingest, tabulation,
scoring or serialization shows up here even when each value stays plausible.
The studies are pinned at their defaults, with every measure under effective
dof, and on grids of small samples, where empty cells and candidates with
zero effective dof occur.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

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


ALL_MEASURES = "mi_plugin,mi_bc,si,si_fisher,ni,p_value"
SMALL_N = ["--n-values", "8,16,32"]
STUDY_RUNS = {
    "fig2/effective": ["fig2", "--seed", "11", "--replicates", "3", "--dof", "effective",
                       "--measures", ALL_MEASURES],
    "fig3/effective": ["fig3", "--seed", "11", "--replicates", "2", "--dof", "effective",
                       "--measures", ALL_MEASURES],
    **{f"fig2-small/{mode}": ["fig2", "--seed", "11", "--replicates", "4", "--dof", mode,
                              "--measures", ALL_MEASURES, *SMALL_N, "--z-grid", "0,0.05,0.125"]
       for mode in ("effective", "nominal")},
    **{f"fig3-small/{mode}": ["fig3", "--seed", "11", "--replicates", "3", "--dof", mode,
                              "--measures", ALL_MEASURES, *SMALL_N]
       for mode in ("effective", "nominal")},
}
STUDY_SHA256 = {
    "fig2/effective/c_n100.tsv":
        "18562368a214f1483a574bb7393acb3d6e9e62cc3d3be281b056c8dce2d33980",
    "fig2/effective/c_n25.tsv":
        "8cfa1b8b2d2e5e10763d77cc0fd955556af276a98028d72f9cbd2f895309a406",
    "fig2/effective/c_n500.tsv":
        "da7452ef1176756748b18e3c2e65078f0bdcc8b6549842f9746ef29314c846d2",
    "fig3/effective/c.tsv":
        "ed1413fda1f00bf2d50ca29fd184aaf9e32368f0c7158abc7bb41bbd9275b193",
    "fig2-small/effective/c_n16.tsv":
        "19c30750285fd8364db3513730e1644bd9d2f06cdbf829a1efb5d49581052f24",
    "fig2-small/effective/c_n32.tsv":
        "deb670be54e497e1670df188a1af0cd544a84a54ea93d959deb1ff9aed4feda2",
    "fig2-small/effective/c_n8.tsv":
        "304244653a836ad9455b00664d0ee44096a9120f2071b9d46b5beef1f6b5ed23",
    "fig3-small/effective/c.tsv":
        "86282e013abc82c4876a5fab72289872e6c0aa9307d1808251c70a8fd8bc43cc",
    "fig2-small/nominal/c_n16.tsv":
        "b1dcc9c345b2807e44bff72f04ffb6cef921c9580c09411408b1aa270894a3c8",
    "fig2-small/nominal/c_n32.tsv":
        "75766b394fd5fdddaa9c06738d928fab81575a9700adf461d8b0a8715f0fb7e3",
    "fig2-small/nominal/c_n8.tsv":
        "fc827d1a2246d22d8d47d660f3be6f252f3b47301c523b74af2152a8c8d8a12d",
    "fig3-small/nominal/c.tsv":
        "b4a13c53e38663945990373310ac65ad5259bf9d7c8446a375d08ca08f212347",
}


@pytest.mark.parametrize("run", sorted(STUDY_RUNS))
def test_study_golden_bytes(tmp_path, capsys, run):
    code = main(["experiment", *STUDY_RUNS[run], "--out", str(tmp_path / "c.tsv")])
    capsys.readouterr()
    assert code == 0
    got = {f"{run}/{p.name}": sha256(p) for p in tmp_path.glob("c*.tsv")}
    assert got == {k: v for k, v in STUDY_SHA256.items() if k.startswith(run + "/")}


def write_wide_dataset(path) -> None:
    """A seeded 600 x 41 CSV of string labels: class `y` and 40 noisy copies of it.

    Feature j takes ``(y + noise) % k`` with ``k`` in 2-8 and 30% noise, so every
    feature has at least two labels and a table with positive effective dof.
    Labels are drawn from per-column shuffled names, so first-appearance order
    differs from sorted order; a comment line and a blank line ride along.
    """
    rng = np.random.default_rng(20_240_607)
    n = 600
    y = rng.integers(0, 4, n)
    names = ["y"] + [f"f{j:02d}" for j in range(40)]
    cols = [np.array([f"c{v}" for v in "wxzq"])[y]]
    for j in range(40):
        k = int(rng.integers(2, 9))
        v = np.where(rng.random(n) < 0.3, rng.integers(0, k, n), y % k)
        tags = rng.permutation([f"s{j}_{i}" for i in range(k)])
        cols.append(tags[v])
    lines = [",".join(names), "# a comment line", ""]
    lines += [",".join(row) for row in zip(*cols)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


MEASURES = ("mi_plugin", "mi_bc", "si", "si_fisher", "ni", "p_value")
RANK_SHA256 = {
    "mi_plugin/effective": "1c7d00ac6231964ab500c1bfa45e5c9be8114f62fa52e8a06f8f827d2aa64fd3",
    "mi_bc/effective": "bff729c18ecb08dcc61b8f73b19062e5a975fe6c77a62f3bb8250478aa46cf2b",
    "si/effective": "a343d7cc832418840636327ef3488704735f4a4fcd2993d3431ef02d5aa49c50",
    "si_fisher/effective": "8b123544234b409f22eccea75918bd7eb8a1ed9cf810e1874017efdb00676857",
    "ni/effective": "1fbd589e19767ba2752fa11cc993af9050ca0b2b383fba2132e11a752c14c785",
    "p_value/effective": "dbb657147d77ed00880eb1fc21be7858df2652904a0b80a55774daf9941d388d",
    "mi_plugin/nominal": "817cafc0ffd45b81699ad99ed38ebf3ab7e2a2315fc352a29825a214fffa88e1",
    "mi_bc/nominal": "da5699e46e2df551a192d734fa105c296ef5efe93dbf115184ef5a740f6656fa",
    "si/nominal": "4f8b96769c434926d0f8811e9f0f8f48b9b4d3e8bfb84ea0712b50ac750b37f0",
    "si_fisher/nominal": "b80f61697d3f7f7f5c18b818c04860f87e6571cec84bdb6157bc1117fcba0d40",
    "ni/nominal": "1afa8dff8147fb946f12ec094e10fb62f570d37fcd9acbc4539e6e7260272cfc",
    "p_value/nominal": "742b453a53523736db1ff9df33dca9d95a28320c635503e2ea4ad26cd916b996",
}
MEASURE_PAIR_SHA256 = "15571c09bece3e574affea4ed557416516b208f51abe2d867364f9ae875e63b9"


def test_rank_golden_bytes(tmp_path, capsys):
    data = tmp_path / "wide.csv"
    write_wide_dataset(data)
    got = {}
    for mode in ("effective", "nominal"):
        for m in MEASURES:
            out = tmp_path / f"rank_{m}_{mode}.tsv"
            code = main(["rank", "--input", str(data), "--class-column", "y",
                         "--measure", m, "--dof", mode, "--out", str(out)])
            assert code == 0
            got[f"{m}/{mode}"] = sha256(out)
    capsys.readouterr()
    assert got == RANK_SHA256


def test_measure_pair_golden_bytes(tmp_path, capsys):
    data = tmp_path / "wide.csv"
    write_wide_dataset(data)
    out = tmp_path / "measure.tsv"
    code = main(["measure", "--input", str(data), "--pair", "f07", "y", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert sha256(out) == MEASURE_PAIR_SHA256
