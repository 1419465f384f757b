"""Which scipy submodules a fresh process loads, and how the package's
modules import each other.

scipy submodules are imported inside the functions that call them, so
importing the package loads none and each verb loads only what it runs.
Every scipy test starts a fresh interpreter with this checkout's ``src`` on
the path, because the test process itself has scipy loaded already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixent
from mixent import EpiExperimentConfig, MixingMatrix, gaussian, unit_variance_uniform
from mixent import formats as fmt

SRC = str(Path(mixent.__file__).resolve().parents[1])

# Appended to every child script: the scipy modules it loaded, as JSON.
REPORT = """
import json as _json, sys as _sys
print(_json.dumps(sorted(k for k in _sys.modules if k == "scipy" or k.startswith("scipy."))))
"""


def run_fresh(code, cwd=None) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code, cwd=None):
    """The scipy modules a fresh interpreter has loaded after ``code``: the
    set of submodule names (first component after ``scipy.``) and the full
    sorted list of module names."""
    names = json.loads(run_fresh(code + REPORT, cwd).splitlines()[-1])
    return {name.split(".")[1] for name in names if "." in name}, names


def test_import_loads_no_scipy():
    _, names = loaded_after("import mixent, mixent.cli")
    assert names == []


@pytest.fixture(scope="module")
def verb_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("verbs")
    rng = np.random.default_rng(5)
    fmt.write_json(d / "sources.json",
                   [fmt.model_to_dict(m) for m in (unit_variance_uniform(), gaussian(1.0))])
    fmt.write_json(d / "uniforms.json",
                   [fmt.model_to_dict(unit_variance_uniform()) for _ in range(2)])
    fmt.write_json(d / "mix.json", fmt.matrix_to_dict(MixingMatrix.from_array(
        np.array([[1.0, 0.4], [0.3, 1.0]]))))
    fmt.write_json(d / "matrix.json", fmt.matrix_to_dict(MixingMatrix.from_array(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))))
    cfg = EpiExperimentConfig(matrix=MixingMatrix.from_array(np.eye(2)),
                              sources=(gaussian(1.0), gaussian(1.0)), n_samples=2000,
                              seed=1)
    fmt.write_json(d / "epi.json", fmt.config_to_dict(cfg))
    cfg = EpiExperimentConfig(matrix=MixingMatrix.from_array(np.array([[1.0, 0.4, 0.0],
                                                                       [0.3, 1.0, 0.5]])),
                              sources=(gaussian(1.0),) * 3, n_samples=2000, seed=1)
    fmt.write_json(d / "epi_knn.json", fmt.config_to_dict(cfg))
    cfg = EpiExperimentConfig(matrix=MixingMatrix.from_array(np.ones((1, 3)) / np.sqrt(3.0)),
                              sources=(unit_variance_uniform(),) * 3, n_samples=2000, seed=1)
    fmt.write_json(d / "epi_uniform.json", fmt.config_to_dict(cfg))
    X = rng.uniform(-1.0, 1.0, size=(1000, 2))
    (d / "scalar.csv").write_text(fmt.samples_csv_text(X[:, :1] + X[:, 1:]))
    (d / "mixed.csv").write_text(fmt.samples_csv_text(X @ np.array([[1.0, 0.4], [0.3, 1.0]]).T))
    (d / "complex.csv").write_text(fmt.samples_csv_text(X + 1j * rng.uniform(-1.0, 1.0, X.shape)))
    return d


# Verb arguments and the scipy submodules the verb needs; a verb that needs
# none may load no scipy module at all.
VERB_CASES = {
    "generate": (["generate", "--sources", "sources.json", "--n", "200", "--mix", "mix.json"],
                 {"special"}),
    # Only the Gaussian-based families draw normals.
    "generate-uniform": (["generate", "--sources", "uniforms.json", "--n", "200", "--mix",
                          "mix.json"], set()),
    "analyze-matrix": (["analyze-matrix", "--input", "matrix.json"], set()),
    "entropy-spacing": (["entropy", "--method", "spacing", "--input", "scalar.csv"], set()),
    "entropy-knn": (["entropy", "--method", "knn", "--input", "mixed.csv"],
                    {"spatial", "special"}),
    # The identity recovers every source: a closed form, nothing sampled.
    "verify-epi": (["verify-epi", "--config", "epi.json"], set()),
    # A one-row tail of uniforms takes spacings on uniform draws.
    "verify-epi-uniform-tail": (["verify-epi", "--config", "epi_uniform.json"], set()),
    # A two-row tail takes kNN.
    "verify-epi-knn": (["verify-epi", "--config", "epi_knn.json"], {"spatial", "special"}),
    "extract-real": (["extract", "--input", "mixed.csv", "--m", "2", "--restarts", "1"], set()),
    "extract-complex": (["extract", "--input", "complex.csv", "--m", "1", "--restarts", "1"],
                        {"spatial", "special"}),
}


@pytest.mark.parametrize("case", sorted(VERB_CASES))
def test_verb_loads_only_the_scipy_it_calls(case, verb_inputs):
    argv, needed = VERB_CASES[case]
    code = (
        "import mixent.cli\n"
        f"code = mixent.cli.main({argv + ['--out', 'out.json']!r})\n"
        "assert code == 0, code\n"
    )
    loaded, names = loaded_after(code, cwd=verb_inputs)
    assert needed <= loaded
    assert not loaded & {"optimize", "integrate"}
    if not needed:
        assert names == []


# Each imports the scipy it needs on its first call, after an import of the
# package that loaded none; the second kNN call has every point twice.
FIRST_CALLS = [
    "mixent.knn_entropy(np.linspace(0.0, 1.0, 300).reshape(150, 2) ** 2).value",
    "mixent.knn_entropy(np.repeat(np.arange(60.0), 2)).value",
    "mixent.canonical_form(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])).B.tolist()",
    "mixent.gram_schmidt_rows(np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3]])).L.tolist()",
    "mixent.quantile_transport(mixent.gaussian_mixture([0.3, 0.7], [-1.0, 1.0], [0.5, 0.8]))"
    ".transform(np.array([-1.0, 0.0, 2.0])).tolist()",
]


@pytest.mark.parametrize("expr", FIRST_CALLS)
def test_first_call_in_fresh_process_matches(expr):
    code = (
        "import json, sys\n"
        "import numpy as np, mixent\n"
        "before = [k for k in sys.modules if k.startswith('scipy')]\n"
        f"print(json.dumps([before, repr({expr})]))\n"
    )
    before, fresh = json.loads(run_fresh(code))
    assert before == []
    assert fresh == repr(eval(expr))


def test_matrix_analysis_loads_no_scipy_but_gram_schmidt():
    code = """
import sys
import numpy as np
import mixent

A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
mixent.classify_components(A)
dec = mixent.canonical_form(A)
assert dec.r == 1 and dec.B.shape == (2, 2), dec
mixent.canonical_form(A * (1.0 + 1.0j))
mixent.orthogonal_complement(np.array([[1.0, 0.0, 0.0]]))
assert not any(k.startswith("scipy") for k in sys.modules)
mixent.gram_schmidt_rows(A)
"""
    loaded, _ = loaded_after(code)
    assert "linalg" in loaded


def test_optimize_and_integrate_load_only_for_the_mixture():
    code = """
import sys
import numpy as np
import mixent
from mixent import distributions as dist

def loaded():
    return {k.split(".")[1] for k in sys.modules if k.startswith("scipy.")}

mix = mixent.gaussian_mixture([0.5, 0.5], [-1.0, 1.0], [0.6, 0.6])
x = np.linspace(-2.0, 2.0, 5)
for model in (mixent.unit_variance_uniform(), mixent.gaussian(1.0)):
    dist.exact_entropy(model)
    dist.sample(model, 100, 1)
    dist.quantile_transport(model).transform(x)
dist.sample(mix, 100, 1)
mixent.knn_entropy(np.linspace(0.0, 1.0, 300).reshape(150, 2) ** 2)
mixent.gram_schmidt_rows(np.array([[1.0, 0.5], [0.0, 1.0]]))
assert not loaded() & {"optimize", "integrate"}, sorted(loaded())
dist.quantile_transport(mix).transform(x)
assert "optimize" in loaded() and "integrate" not in loaded(), sorted(loaded())
dist.exact_entropy(mix)
assert "integrate" in loaded(), sorted(loaded())
"""
    loaded_after(code)


# Each module imports only from lower layers, so extraction (bse) and the
# verification harness (epi_lab) share one layer and never import each other.
LAYERS = (
    ("errors", "rng"),
    ("complex_embedding",),
    ("matrix_analysis",),
    ("distributions",),
    ("entropy",),
    ("epi_lab", "bse"),
    ("formats",),
    ("cli",),
)


def relative_imports(path):
    """The package modules a source file imports, at any depth of the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_modules_import_only_lower_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    for path in sorted(Path(mixent.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        assert path.stem in layer, f"mixent.{path.stem} has no layer"
        for target in relative_imports(path):
            assert layer[target] < layer[path.stem], f"mixent.{path.stem} imports .{target}"
