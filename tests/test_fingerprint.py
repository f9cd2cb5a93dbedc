import importlib.util
import json
import os

import pytest

from nsdarcy import sparse

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "fingerprint.py")
spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)

CONFIGS = ["coupled:1:direct:pairs:2:4", "A:2:iterative:pairs:2:4"]


def test_default_configurations():
    assert len(fingerprint.CONFIGS) == 80
    assert len(set(fingerprint.CONFIGS)) == 80


def test_reruns_match_and_an_edit_is_reported(tmp_path, capsys):
    one, two = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    wrapped = (sparse.gmres, sparse.pcg, sparse.true_residual)
    for path in (one, two):
        assert fingerprint.main(["write", path] + CONFIGS) == 0
    # the counting and recording wrappers are taken out again
    assert (sparse.gmres, sparse.pcg, sparse.true_residual) == wrapped
    with open(one) as fh:
        first = fh.read()
    with open(two) as fh:
        assert fh.read() == first
    capsys.readouterr()
    assert fingerprint.main(["compare", one, two]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 of 2 configurations identical"]

    data = json.loads(first)
    direct = data[CONFIGS[0]]
    assert direct["superlu_inputs"] == 2   # one factor per mesh, n = 2, 4
    fill = direct["superlu_fill"]
    assert len(fill) == 2 and all(isinstance(k, int) for k in fill)
    assert 0 < fill[0] < fill[1]
    # Picard's GMRES on its refilled K, preconditioned by the first factor
    assert direct["krylov"] and {m for m, _ in direct["krylov"]} == {"gmres"}
    # one true residual per solve: the first iterate's direct one, then
    # one per GMRES
    residuals = [float.fromhex(r) for r in direct["residuals"]]
    assert len(residuals) == len(direct["krylov"]) + 2
    assert all(0.0 < r < 1e-8 for r in residuals)
    # the Krylov solves of A: PCG on the head, GMRES on the rest
    iterative = data[CONFIGS[1]]["krylov"]
    assert {m for m, _ in iterative} == {"gmres", "pcg"}
    assert all(isinstance(k, int) and k > 0 for _, k in iterative)
    row = direct["rows"][0]
    assert float.fromhex(row[4]) > 0
    # one unit in the 4th digit of the first error
    row[4] = (float.fromhex(row[4]) * 1.001).hex()
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    assert fingerprint.main(["compare", one, str(edited)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{CONFIGS[0]}: max rel error diff 9.99")
    assert lines[0].endswith("SuperLU inputs same, Krylov counts same, "
                             "residuals same")
    assert lines[1].startswith("  0,1/2,")
    assert lines[-1] == "1 of 2 configurations identical"


def hand_built(path, errors, digest, krylov=None, fill=None,
               residuals=None, direct=None, dtypes=None):
    """A one-configuration fingerprint file with the given errors of u
    in L2 on n = 2 and 4, and Krylov counts, SuperLU fill, true
    residuals, direct counts and SuperLU dtypes when given."""
    rows = [[level, h, "u", "L2", float(e).hex(), rate] for level, h, e, rate
            in zip((0, 1), ("1/2", "1/4"), errors, (None, (2.0).hex()))]
    fp = {"rows": rows, "superlu_sha256": digest, "superlu_inputs": 2}
    if krylov is not None:
        fp["krylov"] = krylov
    if fill is not None:
        fp["superlu_fill"] = fill
    if residuals is not None:
        fp["residuals"] = [float(r).hex() for r in residuals]
    if direct is not None:
        fp["direct"] = direct
    if dtypes is not None:
        fp["superlu_dtypes"] = dtypes
    path.write_text(json.dumps({CONFIGS[0]: fp}))
    return str(path)


@pytest.mark.parametrize("scale,rtol,code", [
    (1 + 1e-13, "1e-12", 0),   # within, body unchanged
    (1 + 1e-10, "1e-12", 1),   # outside
    (1.01, "0.1", 1),          # within, but the printed body changes
])
def test_compare_within_rtol(tmp_path, capsys, scale, rtol, code):
    """SuperLU inputs that differ do not decide under --rtol."""
    a = hand_built(tmp_path / "a.json", (1e-3, 2.5e-4), "aa")
    b = hand_built(tmp_path / "b.json", (1e-3 * scale, 2.5e-4), "bb")
    assert fingerprint.main(["compare", a, b]) == 1
    capsys.readouterr()
    assert fingerprint.main(["compare", a, b, "--rtol", rtol]) == code
    lines = capsys.readouterr().out.splitlines()
    assert "SuperLU inputs differ (2 against 2 inputs, fill unknown)" \
        in lines[0]
    assert lines[0].endswith(f"within rtol {float(rtol):g}") == (code == 0)
    assert lines[-1] == (f"{1 - code} of 1 configurations identical or "
                         f"within rtol {float(rtol):g}")


def test_krylov_counts_that_differ_are_named(tmp_path, capsys):
    """Even when the errors pass --rtol; without it they fail."""
    a = hand_built(tmp_path / "a.json", (1e-3, 2.5e-4), "aa",
                   [["gmres", 7], ["pcg", 3]])
    b = hand_built(tmp_path / "b.json", (1e-3, 2.5e-4), "aa",
                   [["gmres", 8], ["pcg", 3]])
    assert fingerprint.main(["compare", a, b]) == 1
    assert fingerprint.main(["compare", a, b, "--rtol", "1e-12"]) == 0
    out = capsys.readouterr().out.splitlines()
    named = (f"{CONFIGS[0]}: max rel error diff 0.000e+00, SuperLU inputs "
             f"same, Krylov counts differ (2 against 2 solves; solve 1: "
             f"gmres 7 against gmres 8), residuals unknown")
    assert out[0] == named and out[2] == named + ", within rtol 1e-12"
    assert out[-1] == "1 of 1 configurations identical or within rtol 1e-12"


@pytest.mark.parametrize("fill_b,shown", [
    ([100, 300], "fill same"),
    ([100, 302], "fill +0.500%"),
    ([90, 300], "fill -2.500%"),
    (None, "fill unknown"),
])
def test_fill_is_shown_where_the_inputs_differ(tmp_path, capsys, fill_b,
                                               shown):
    """The summed fill from A to B; under --rtol it does not decide."""
    a = hand_built(tmp_path / "a.json", (1e-3, 2.5e-4), "aa", fill=[100, 300])
    b = hand_built(tmp_path / "b.json", (1e-3, 2.5e-4), "bb", fill=fill_b)
    assert fingerprint.main(["compare", a, b, "--rtol", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"{CONFIGS[0]}: max rel error diff 0.000e+00, SuperLU inputs differ "
        f"(2 against 2 inputs, {shown}), Krylov counts unknown, residuals "
        f"unknown, within rtol 0")


def test_fill_that_differs_on_the_same_inputs_is_named(tmp_path, capsys):
    """Such as the same matrices factored under another pivot threshold;
    a file without fill does not decide."""
    a = hand_built(tmp_path / "a.json", (1e-3, 2.5e-4), "aa", fill=[100, 300])
    b = hand_built(tmp_path / "b.json", (1e-3, 2.5e-4), "aa", fill=[100, 500])
    old = hand_built(tmp_path / "old.json", (1e-3, 2.5e-4), "aa")
    assert fingerprint.main(["compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{CONFIGS[0]}: max rel error diff 0.000e+00, SuperLU inputs same, "
        f"fill +50.000%, Krylov counts unknown, residuals unknown",
        "0 of 1 configurations identical"]
    assert fingerprint.main(["compare", a, a]) == 0
    assert fingerprint.main(["compare", old, b]) == 0
    assert "fill" not in capsys.readouterr().out


def test_a_file_without_krylov_counts_compares_as_unknown(tmp_path, capsys):
    old = hand_built(tmp_path / "old.json", (1e-3, 2.5e-4), "aa")
    new = hand_built(tmp_path / "new.json", (1e-3, 2.5e-4), "aa",
                     [["gmres", 7]])
    assert fingerprint.main(["compare", old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{CONFIGS[0]}: max rel error diff 0.000e+00, SuperLU inputs same, "
        f"Krylov counts unknown, residuals unknown",
        "1 of 1 configurations identical"]


def test_a_moved_residual_is_named(tmp_path, capsys):
    """Even with the same errors, inputs and counts; under --rtol it does
    not decide."""
    krylov = [["gmres", 7], ["pcg", 3]]
    a = hand_built(tmp_path / "a.json", (1e-3, 2.5e-4), "aa", krylov,
                   residuals=[1e-15, 2e-10, 3e-11])
    b = hand_built(tmp_path / "b.json", (1e-3, 2.5e-4), "aa", krylov,
                   residuals=[1e-15, 2.5e-10, 3e-11])
    assert fingerprint.main(["compare", a, a]) == 0
    assert fingerprint.main(["compare", a, b]) == 1
    assert fingerprint.main(["compare", a, b, "--rtol", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    named = (f"{CONFIGS[0]}: max rel error diff 0.000e+00, SuperLU inputs "
             f"same, Krylov counts same, residuals differ (solve 2: 2e-10 "
             f"against 2.5e-10)")
    assert out[1:] == [named, "0 of 1 configurations identical",
                       named + ", within rtol 0",
                       "1 of 1 configurations identical or within rtol 0"]


def test_a_file_without_residuals_compares_as_unknown(tmp_path, capsys):
    krylov = [["gmres", 7]]
    old = hand_built(tmp_path / "old.json", (1e-3, 2.5e-4), "aa", krylov)
    new = hand_built(tmp_path / "new.json", (1e-3, 2.5e-4), "aa", krylov,
                     residuals=[2e-10])
    assert fingerprint.main(["compare", old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{CONFIGS[0]}: max rel error diff 0.000e+00, SuperLU inputs same, "
        f"Krylov counts same, residuals unknown",
        "1 of 1 configurations identical"]


def test_direct_counts_and_dtypes_are_recorded(tmp_path):
    """Algorithm A: Picard's float64 factor on n = 2 solves its first
    iterate in one triangular solve; the Darcy and NS steps on n = 4 factor
    in float32 and refine each of their two solves."""
    path = tmp_path / "a.json"
    config = "A:1:direct:pairs:2:4"
    assert fingerprint.main(["write", str(path), config]) == 0
    fp = json.loads(path.read_text())[config]
    assert fp["superlu_dtypes"] == ["float64", "float32", "float32"]
    assert fp["superlu_inputs"] == 3
    direct = fp["direct"]
    assert len(direct) == 5 and direct[0] == 1
    assert all(isinstance(k, int) and k >= 2 for k in direct[1:])


def test_direct_counts_and_dtypes_that_differ_are_named(tmp_path, capsys):
    """Direct counts that move make a configuration differ, and under
    --rtol do not decide; a file without them does not decide either."""
    errors = (1e-3, 2.5e-4)
    a = hand_built(tmp_path / "a.json", errors, "aa", [["gmres", 7]],
                   direct=[1, 1, 1], dtypes=["float64"] * 3)
    b = hand_built(tmp_path / "b.json", errors, "bb", [["gmres", 7]],
                   direct=[1, 4, 3], dtypes=["float64", "float32", "float32"])
    old = hand_built(tmp_path / "old.json", errors, "bb", [["gmres", 7]])
    assert fingerprint.main(["compare", a, b]) == 1
    assert fingerprint.main(["compare", a, b, "--rtol", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    named = (f"{CONFIGS[0]}: max rel error diff 0.000e+00, SuperLU inputs "
             f"differ (2 against 2 inputs, fill unknown, dtypes differ "
             f"(input 2: float64 against float32)), Krylov counts same, "
             f"direct counts differ (3 against 3 solves; solve 2: 1 "
             f"against 4), residuals unknown")
    assert out == [named, "0 of 1 configurations identical",
                   named + ", within rtol 0",
                   "1 of 1 configurations identical or within rtol 0"]
    assert fingerprint.main(["compare", old, b]) == 0
    assert "direct counts" not in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["compare", "a.json", "b.json", "--rtol", "x"],
    ["compare", "a.json", "b.json", "--rtol", "-1"],
    ["compare", "a.json", "b.json", "--rtol", "nan"],
    ["compare", "a.json", "b.json", "--tol", "1"],
    [], ["write"], ["compare", "a.json"], ["write", "out.json", "--src"],
    ["write", "out.json", "A:1:direct"], ["compare", "a.json", "b.json"],
])
def test_bad_arguments_exit_two(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert fingerprint.main(args) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
