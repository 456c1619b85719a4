"""Import footprint: no module of the package imports scipy and no
command loads it or numpy.ma, the package and the CLI load no module they
do not use, and no module imports a name it does not use.

Every check runs in a fresh interpreter, since this test process has
long since imported scipy itself (the oracle tests use it).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bcgbeat import io as bio
from bcgbeat.cli import main
from bcgbeat.detector import hr_from_beats
from bcgbeat.synth import SynthConfig, generate

SRC = Path(__file__).resolve().parent.parent / "src"

# Makes every `import scipy...` in the interpreter it is run in fail.
BLOCK_SCIPY = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""


def run_fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter with this checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout


def modules_after(code: str, package: str) -> set[str]:
    """The modules of `package`, itself included, loaded once `code` has run
    in a fresh interpreter."""
    code += (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r}))))\n"
    )
    return set(json.loads(run_fresh(code).splitlines()[-1]))


def cli_code(*argvs) -> str:
    """Code that runs each argv through bcgbeat.cli.main, requiring exit 0."""
    lines = ["from bcgbeat.cli import main"]
    lines += [f"assert main({list(map(str, argv))!r}) == 0, {argv[0]!r}" for argv in argvs]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Two synthesized training recordings, a model, and an HR/beats
    estimate to score."""
    root = tmp_path_factory.mktemp("imports")
    for name, seed in (("rec", 3), ("rec2", 4)):
        bio.write_recording(root / f"{name}.csv", generate(SynthConfig(duration_s=90.0, seed=seed)).recording)
    assert main(["train", str(root / "rec.csv"), "--max_em_iters", "2",
                 "--out", str(root / "model.csv")]) == 0
    rec = bio.read_recording(root / "rec.csv")
    gt = rec.gt_beat_times
    hr = hr_from_beats(gt, rec.sample_rate_hz, 60.0, 15.0, rec.duration_s)
    bio.write_hr(root / "est.hr.csv", hr)
    bio.write_beats(root / "est.beats.csv", [(int(b), 1.0) for b in gt], rec.sample_rate_hz)
    return root


def test_importing_the_package_loads_no_scipy():
    assert modules_after("import bcgbeat, bcgbeat.cli", "scipy") == set()


def test_importing_the_package_loads_no_submodule():
    assert modules_after("import bcgbeat", "bcgbeat") == {"bcgbeat"}


def test_eval_loads_no_scipy(inputs):
    d = inputs
    argv = ["eval", d / "rec.csv", "--est-hr", d / "est.hr.csv",
            "--est-beats", d / "est.beats.csv", "--out", d / "report"]
    assert modules_after(cli_code(argv), "scipy") == set()
    assert "mae_bpm" in bio.read_keyvalue(d / "report")


def test_synth_loads_no_scipy(tmp_path):
    cfg = tmp_path / "synth.conf"
    cfg.write_text("duration_s=10\nhrv_amp_bpm=5\n")
    argv = ["synth", "--config", cfg, "--out", tmp_path / "rec.csv"]
    assert modules_after(cli_code(argv), "scipy") == set()


@pytest.mark.parametrize("mode", ["individual", "batch"])
def test_train_loads_no_scipy(inputs, tmp_path, mode):
    recs = [inputs / "rec.csv"] + ([inputs / "rec2.csv"] if mode == "batch" else [])
    argv = ["train", *recs, "--mode", mode, "--max_em_iters", "2", "--out", tmp_path / "m.csv"]
    assert modules_after(cli_code(argv), "scipy") == set()
    assert (tmp_path / "m.params").exists()


@pytest.mark.parametrize("flags", [[], ["--dft"]], ids=["beats", "dft"])
def test_detect_loads_no_scipy(inputs, tmp_path, flags):
    argv = ["detect", inputs / "rec.csv", "--dict", inputs / "model.csv", *flags,
            "--out", tmp_path / "d"]
    assert modules_after(cli_code(argv), "scipy") == set()
    assert (tmp_path / "d.hr.csv").exists()


def test_no_command_imports_numpy_ma(tmp_path):
    """np.unique loads numpy.ma (for np.ma.is_masked) on its first call,
    some 10 ms per command; synth, train, detect and detect --dft do
    without it, as eval does."""
    d = tmp_path
    cfg = d / "synth.conf"
    cfg.write_text("duration_s=70\nhr_bpm=66\nsnr_db=10\n")
    chain = cli_code(
        ["synth", "--config", cfg, "--seed", "3", "--out", d / "rec.csv"],
        ["train", d / "rec.csv", "--max_em_iters", "2", "--out", d / "m.csv"],
        ["detect", d / "rec.csv", "--dict", d / "m.csv", "--out", d / "det"],
        ["detect", d / "rec.csv", "--dict", d / "m.csv", "--dft", "--out", d / "dft"],
    )
    assert modules_after(chain, "numpy.ma") == set()
    assert (d / "dft.hr.csv").exists()


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    with pytest.raises(subprocess.CalledProcessError, match="exit status 1"):
        run_fresh(BLOCK_SCIPY + "import scipy")
    d = tmp_path
    cfg = d / "synth.conf"
    cfg.write_text("duration_s=70\nhr_bpm=70\nhrv_amp_bpm=4\n")
    chain = cli_code(
        ["synth", "--config", cfg, "--seed", "1", "--out", d / "a.csv"],
        ["synth", "--config", cfg, "--seed", "2", "--out", d / "b.csv"],
        ["train", d / "a.csv", "--max_em_iters", "2", "--out", d / "m.csv"],
        ["train", d / "a.csv", d / "b.csv", "--mode", "batch", "--max_em_iters", "2",
         "--out", d / "mb.csv"],
        ["detect", d / "b.csv", "--dict", d / "m.csv", "--out", d / "det"],
        ["detect", d / "b.csv", "--dict", d / "m.csv", "--dft", "--out", d / "dft"],
        ["eval", d / "b.csv", "--est-hr", d / "det.hr.csv", "--est-beats", d / "det.beats.csv",
         "--out", d / "report"],
        ["eval", d / "b.csv", "--est-hr", d / "dft.hr.csv", "--out", d / "dft.report"],
    )
    run_fresh(BLOCK_SCIPY + chain)
    assert "mae_bpm" in bio.read_keyvalue(d / "report")


def test_no_module_imports_scipy():
    """Not at module level and not inside a function: scipy is the tests'
    oracle, never a dependency of the package."""
    found = []
    for path in sorted((SRC / "bcgbeat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n == "scipy" or n.startswith("scipy.")]
    assert found == []


def unused_imports(path: Path) -> list[str]:
    """`file:line name` for each module-level import of `path` (bar
    `from __future__`) whose bound name the module never reads."""
    tree = ast.parse(path.read_text(), str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(p for p in (SRC / "bcgbeat").glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


# The pipeline's steps, which the CLI reaches only through
# detector.train_model and detector.detect_recording, and the scores, which
# it reaches only through metrics.evaluate.
PIPELINE_STEPS = {
    "fit", "build_bags", "candidate_peaks", "extract_instances", "confidence_series",
    "background_covariance", "learn_detection_params_pooled", "vote_beats",
    "hr_from_confidence_dft",
    "window_errors", "per_window_errors", "mae", "greedy_match", "match_segments",
    "bland_altman", "pearson_r", "paired_t", "beat_f1",
}


def test_the_cli_reaches_no_pipeline_step_itself():
    """No second copy of the pipeline or of eval's scores can grow back
    into the CLI: cli.py neither imports a step nor reads one as a module
    attribute."""
    tree = ast.parse((SRC / "bcgbeat" / "cli.py").read_text())
    names = {
        part
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        for part in (alias.name.split(".")[-1], alias.asname)
    }
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(names & PIPELINE_STEPS) == []


def names_in(tree: ast.AST, strings: bool = False) -> set[str]:
    """The names `tree` reads, as variables, attributes or imports; with
    `strings` also the dotted parts of its string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def test_every_definition_has_a_caller():
    """Each top-level function and class of the package, and each method
    and property of its classes but the dunders, is named by another
    module of it, used in its own module or named by the benchmark
    (perfbench/*.py, also by string)."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in (SRC / "bcgbeat").glob("*.py")}
    bench = set().union(*(
        names_in(ast.parse(p.read_text()), strings=True)
        for p in (SRC.parent / "perfbench").glob("*.py")
    ))
    uncalled = []
    for module, tree in trees.items():
        others = set().union(*(names_in(t) for m, t in trees.items() if m != module))
        named = others | names_in(tree) | bench
        uncalled += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
        ]
        uncalled += [
            f"{module}.{cls.name}.{node.name}"
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in named
        ]
    assert uncalled == []
