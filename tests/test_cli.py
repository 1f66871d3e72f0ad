import json
import warnings
from collections import Counter

import numpy as np
import pytest

import conescore
from conescore import GeneratorSet, RankKind
from conescore.cli import main
from conescore.fixtures import fixture_path
from conftest import linf_grid, load_fixture, plane_with_a_missed_line


def run(tmp_path, command, in_doc, *args, name="problem.json"):
    in_path = tmp_path / name
    out_path = tmp_path / "result.json"
    if isinstance(in_doc, (dict, list)):
        in_path.write_text(json.dumps(in_doc))
    else:
        in_path.write_text(in_doc)
    code = main([command, "--in", str(in_path), "--out", str(out_path),
                 "--reproducible", *args])
    result = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, result


def scaled_fixture(name, s):
    """The fixture with its generators and samples scaled to max|x| = s."""
    doc = load_fixture(name)
    for key in ("generators", "metrics_samples"):
        if key in doc:
            x = np.asarray(doc[key], dtype=float)
            doc[key] = (x / np.max(np.abs(x)) * s).tolist()
    return doc


# a row below cone_tol along the lineality space (the x-axis) and one across it
TINY_ROW_CONES = pytest.mark.parametrize("tiny", [[-1e-9, 0], [0, 1e-9]],
                                         ids=["along-lineality", "across-lineality"])


class TestDecompose:
    def test_halfspace(self, tmp_path):
        code, res = run(tmp_path, "decompose", load_fixture("halfspace_2d.json"))
        assert code == 0
        assert res["decomposition"]["ell"] == 1

    def test_pointed(self, tmp_path):
        code, res = run(tmp_path, "decompose", load_fixture("square_cone_generators.json"))
        assert code == 0
        assert res["decomposition"]["ell"] == 0

    def test_5d(self, tmp_path):
        code, res = run(tmp_path, "decompose", load_fixture("nonpointed_5d_generators.json"))
        assert code == 0
        assert res["decomposition"]["ell"] == 2
        assert res["decomposition"]["pointed_count"] == 4

    @TINY_ROW_CONES
    def test_rows_below_cone_tol_are_in_neither_list(self, tmp_path, tiny):
        code, res = run(tmp_path, "decompose", {"generators": [tiny, [1, 0], [-1, 0], [0, 1]]})
        assert code == 0
        dec = res["decomposition"]
        assert dec["ell"] == 1
        assert dec["lineal_generator_indices"] == [1, 2]
        assert dec["pointed_generator_indices"] == [3]

    def test_row_below_cone_tol_stays_zero_once_projected(self, tmp_path):
        # projected off the lineality line (1, -1, -1), the first row has
        # max|w| 1.2e-8 > cone_tol; it must not turn [-2, -1, -1] into a line
        gens = [[9e-9, 9e-9, 9e-9], [1, -1, -1], [-1, 1, 1], [-2, -1, -1], [0, 1, -1]]
        code, res = run(tmp_path, "decompose", {"generators": gens})
        assert code == 0
        dec = res["decomposition"]
        assert dec["ell"] == 1
        assert dec["lineal_generator_indices"] == [1, 2]
        assert dec["pointed_generator_indices"] == [3, 4]

    def test_rows_below_cone_tol_are_not_lineal_in_a_pointed_cone(self, tmp_path):
        code, res = run(tmp_path, "decompose", {"generators": [[0, 1], [1e-9, 0], [-1e-9, 0]]})
        assert code == 0
        dec = res["decomposition"]
        assert dec["ell"] == 0
        assert dec["lineal_generator_indices"] == []
        assert dec["pointed_generator_indices"] == [0]


CONE_FIXTURES = ["line_2d.json", "plane_2d.json", "halfspace_2d.json", "wedge_2d.json",
                 "ray_2d.json", "nonpointed_5d_generators.json", "square_cone_generators.json",
                 "wide_wedge_2d.json"]
NON_POINTED_FIXTURES = CONE_FIXTURES[:3] + CONE_FIXTURES[5:6]


def decomposition_and_ranks(tmp_path, doc):
    """decompose's ell and index lists and rank's three values for doc."""
    code, dec = run(tmp_path, "decompose", doc)
    assert code == 0
    code, res = run(tmp_path, "rank", doc)
    assert code == 0
    dec = dec["decomposition"]
    return (dec["ell"], dec["lineal_generator_indices"], dec["pointed_generator_indices"],
            {k: v["value"] for k, v in res["ranks"].items()})


@pytest.mark.parametrize("name", CONE_FIXTURES)
def test_decomposition_and_ranks_do_not_depend_on_scale(tmp_path, monkeypatch, name):
    # one zero-combination LP and at most one membership batch, both on the
    # rows scaled by powers of two, decide the lineality space at any scale
    calls = Counter()
    for fn in ("_zero_combination", "_members"):
        def counting(*args, _fn=fn, _real=getattr(conescore.cone, fn)):
            calls[_fn] += 1
            return _real(*args)

        monkeypatch.setattr(conescore.cone, fn, counting)
    want = decomposition_and_ranks(tmp_path, load_fixture(name))
    for scale in (1e-6, 1.0, 1e9, 1e12, 1e16, 1e100, 1e300, 8e307):
        doc = scaled_fixture(name, scale)
        calls.clear()
        code, _ = run(tmp_path, "decompose", doc)
        assert code == 0
        assert calls["_zero_combination"] == 1 and calls["_members"] <= 1, scale
        assert decomposition_and_ranks(tmp_path, doc) == want, scale
        pointed = conescore.is_pointed(GeneratorSet(doc["generators"]))
        assert pointed == (want[0] == 0), scale


@pytest.mark.parametrize("argv", [("decompose",)] + [("rank", "--kind", k)
                                                       for k in ("csr", "cgr", "cr", "all")])
@pytest.mark.parametrize("name", NON_POINTED_FIXTURES)
def test_non_pointed_cones_at_the_float_maximum(tmp_path, capsys, name, argv):
    # at max|g| = 1.7e308 a command either gives the unit-scale answer or
    # exits 2 naming what overflowed, never another answer; the unit rows'
    # norms overflow and warn on the way to CR, which is still right
    (tmp_path / "unit").mkdir()
    _, unit = run(tmp_path / "unit", argv[0], load_fixture(name), *argv[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, res = run(tmp_path, argv[0], scaled_fixture(name, 1.7e308), *argv[1:])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        key = "decomposition" if argv[0] == "decompose" else "ranks"
        got, want = res[key], unit[key]
        if key == "ranks":
            got, want = ({k: v["value"] for k, v in r.items()} for r in (got, want))
        else:
            got, want = ({k: r[k] for k in ("ell", "lineal_generator_indices",
                                            "pointed_generator_indices")} for r in (got, want))
        assert got == want
    else:
        assert code == 2 and res is None
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_projection_that_overflows_is_an_input_error(tmp_path, capsys):
    # the halfspace's row (-2, 2) projected off the line through (2, 1) is
    # (-1.02e308, 2.04e308) at this scale: finite input, an infinite part
    code, res = run(tmp_path, "decompose", scaled_fixture("halfspace_2d.json", 1.7e308))
    assert code == 2
    assert res is None
    assert capsys.readouterr().err == (
        "error: generators: projected generators overflow (entries must be finite)\n")


class TestRank:
    def test_5d_all(self, tmp_path):
        code, res = run(tmp_path, "rank", load_fixture("nonpointed_5d_generators.json"))
        assert code == 0
        assert {k: v["value"] for k, v in res["ranks"].items()} == {
            "csr": 8, "cgr": 7, "cr": 6,
        }
        assert res["chain_ok"] is True

    def test_all_kinds_decompose_once(self, tmp_path, monkeypatch):
        import conescore.cli
        import conescore.ranks

        calls = []
        real = conescore.ranks.decompose

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(conescore.cli, "decompose", counting)
        monkeypatch.setattr(conescore.ranks, "decompose", counting)
        code, _ = run(tmp_path, "rank", load_fixture("nonpointed_5d_generators.json"),
                      "--kind", "all")
        assert code == 0
        assert len(calls) == 1

    def test_all_kinds_trust_the_decomposition(self, tmp_path, monkeypatch):
        # at ell = 0 decompose decides pointedness; no rank step proves it again
        import conescore.cone
        import conescore.ranks

        calls = []
        real = conescore.cone.is_pointed

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(conescore.cone, "is_pointed", counting)
        code, res = run(tmp_path, "rank", load_fixture("square_cone_generators.json"),
                        "--kind", "all")
        assert code == 0
        assert res["chain_ok"] is True
        assert calls == []
        assert not hasattr(conescore.ranks, "is_pointed")

    @pytest.mark.parametrize("kind", ["cr", "all"])
    def test_rows_below_cone_tol_count_as_zero(self, tmp_path, kind):
        # decompose treats the +-1e-9 rows as zero, and so does CR
        code, res = run(tmp_path, "rank", {"generators": [[0, 1], [1e-9, 0], [-1e-9, 0]]},
                        "--kind", kind)
        assert code == 0
        assert {k: v["value"] for k, v in res["ranks"].items()} == dict.fromkeys(
            res["ranks"], 1)
        assert res["ranks"]["cr"]["witness"] == [[0.0, 1.0]]
        if kind == "all":
            assert set(res["ranks"]) == {"csr", "cgr", "cr"}
            # the rank chain_ok compares with ignores the same rows
            assert res["numeric_rank"] == 1 and res["chain_ok"] is True

    @pytest.mark.parametrize("gens, want", [
        ([[1e-9, 0], [0, -1e-10]], []),
        ([[0, 1], [1, 1], [1e-10, 0]], [[0.0, 1.0], [1.0, 1.0]]),
    ], ids=["all-below-cone-tol", "one-below-cone-tol"])
    def test_csr_and_cgr_ignore_rows_below_cone_tol(self, tmp_path, gens, want):
        # a row below cone_tol is zero to CSR and CGR too, never a direction
        # that makes the other rows redundant
        code, res = run(tmp_path, "rank", {"generators": gens})
        assert code == 0
        ranks = res["ranks"]
        assert ranks["csr"]["witness"] == ranks["cgr"]["witness"] == want
        assert ranks["csr"]["value"] == ranks["cgr"]["value"] == len(want)
        assert ranks["cr"]["value"] == res["numeric_rank"] == len(want)
        assert res["chain_ok"] is True

    @TINY_ROW_CONES
    def test_rows_below_cone_tol_stay_out_of_the_lineal_part(self, tmp_path, tiny):
        # at ell > 0 too, a row below cone_tol is no lineal generator for CSR
        code, res = run(tmp_path, "rank", {"generators": [tiny, [1, 0], [-1, 0], [0, 1]]},
                        "--kind", "all")
        assert code == 0
        assert res["ranks"]["csr"]["subset_indices"] == [1, 2, 3]
        for rank in res["ranks"].values():
            assert rank["value"] == 3
            assert all(max(abs(v) for v in w) > res["tolerances"]["cone_tol"]
                       for w in rank["witness"])
        assert res["numeric_rank"] == 2 and res["chain_ok"] is True

    @pytest.mark.parametrize("zero", [[0, 0], [1e-10, 0]], ids=["exact-zero", "below-cone-tol"])
    def test_indices_are_input_positions(self, tmp_path, zero):
        # a row that counts as zero keeps its place: every index names an
        # input row, and m and the warning count the rows as decompose does
        doc = {"generators": [zero, [1, 0], [0, 1], [-1, 0]]}
        code, res = run(tmp_path, "rank", doc, "--kind", "all")
        assert code == 0
        assert res["ranks"]["csr"]["subset_indices"] == [1, 2, 3]
        assert res["m"] == 3
        assert res["warnings"] == ["dropped 1 zero generator row(s)"]
        code, res = run(tmp_path, "decompose", doc)
        assert code == 0
        dec = res["decomposition"]
        assert dec["lineal_generator_indices"] == [1, 3]
        assert dec["pointed_generator_indices"] == [2]
        assert res["warnings"] == ["dropped 1 zero generator row(s)"]

    def test_uncertified_rank_one_witness_exits_4(self, tmp_path, capsys):
        code, res = run(tmp_path, "rank", {"generators": [[1e-5, 1e-5], [3e4, -1e4]]},
                        "--kind", "cr")
        assert code == 4
        assert res is None
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_cr_certificate_exits_4(self, tmp_path, capsys, monkeypatch):
        import conescore.ranks

        real = conescore.ranks.enclosing_simplex

        def shrunk(*args, **kwargs):
            verts = real(*args, **kwargs)
            return verts.mean(axis=0) + 0.5 * (verts - verts.mean(axis=0))

        monkeypatch.setattr(conescore.ranks, "enclosing_simplex", shrunk)
        code, res = run(tmp_path, "rank", load_fixture("square_cone_generators.json"),
                        "--kind", "cr")
        assert code == 4
        assert res is None
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_broken_chain_exits_4(self, tmp_path, capsys, monkeypatch):
        import conescore.cli

        real = conescore.cli.cone_ranks

        def swapped(*args, **kwargs):  # CGR 4 and CR 3 reported as 3 and 4
            ranks = real(*args, **kwargs)
            ranks[RankKind.CGR], ranks[RankKind.CR] = ranks[RankKind.CR], ranks[RankKind.CGR]
            return ranks

        monkeypatch.setattr(conescore.cli, "cone_ranks", swapped)
        code, res = run(tmp_path, "rank", load_fixture("square_cone_generators.json"))
        assert code == 4
        assert res is None
        assert capsys.readouterr().err == (
            "error: rank chain m >= CSR >= CGR >= CR >= rank fails: 4 >= 4 >= 3 >= 4 >= 3\n")

    def test_halfspace_called_pointed_keeps_a_generating_subset(self, tmp_path):
        # at max|g| = 1e155 decompose finds the halfspace's line, as at unit
        # scale, so CSR and CGR are 3 and CSR keeps the same rows
        gens = np.asarray(load_fixture("halfspace_2d.json")["generators"], dtype=float)
        doc = {"generators": (gens / np.abs(gens).max() * 1e155).tolist()}
        for kind in ("csr", "cgr"):
            code, res = run(tmp_path, "rank", doc, "--kind", kind)
            assert code == 0
            assert res["ranks"][kind]["value"] == 3
        code, res = run(tmp_path, "rank", doc, "--kind", "csr")
        assert res["ranks"]["csr"]["subset_indices"] == [0, 1, 3]

    def test_overflowing_square_cone_gets_unit_scale_ranks(self, tmp_path, capsys):
        # at max|g| = 1.7e308 decompose's LP and the extreme-row scan's LPs
        # combine the rows scaled by powers of two, so CSR = CGR = 4 and
        # CR = 3 as at unit scale; the norms of _unit_rows still overflow
        # and warn
        gens = np.sign(load_fixture("square_cone_generators.json")["generators"]) * 1.7e308
        with pytest.warns(RuntimeWarning):
            code, res = run(tmp_path, "rank", {"generators": gens.tolist()})
        assert code == 0
        assert {k: v["value"] for k, v in res["ranks"].items()} == {
            "csr": 4, "cgr": 4, "cr": 3,
        }
        assert res["ranks"]["csr"]["subset_indices"] == [0, 1, 2, 3]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["csr", "cgr", "all"])
    def test_wide_wedge_at_the_float_maximum_gets_unit_scale_ranks(self, tmp_path, kind):
        # the rays span 178 degrees; at max|g| = 1.7e308 the elimination's
        # one batch still keeps rows 3 and 5, as at unit scale
        doc = scaled_fixture("wide_wedge_2d.json", 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, res = run(tmp_path, "rank", doc, "--kind", kind)
        assert code == 0
        ranks = res["ranks"]
        assert {k: v["value"] for k, v in ranks.items()} == dict.fromkeys(ranks, 2)
        if kind != "cgr":
            assert ranks["csr"]["subset_indices"] == [3, 5]

    def test_line_missed_by_the_decomposition_exits_2(self, tmp_path, capsys, monkeypatch):
        W, missing_a_line = plane_with_a_missed_line()
        monkeypatch.setattr("conescore.ranks.decompose", missing_a_line)
        code, res = run(tmp_path, "rank", {"generators": W.generators.tolist()},
                        "--kind", "cgr")
        assert code == 2
        assert res is None
        assert capsys.readouterr().err == (
            "error: generators: the pointed part holds a line the decomposition missed\n")

    def test_square_cone_all(self, tmp_path):
        code, res = run(tmp_path, "rank", load_fixture("square_cone_generators.json"))
        assert code == 0
        assert {k: v["value"] for k, v in res["ranks"].items()} == {
            "csr": 4, "cgr": 4, "cr": 3,
        }

    def test_single_generator(self, tmp_path):
        code, res = run(tmp_path, "rank", {"generators": [[1.0, 2.0, 0.0]]})
        assert code == 0
        assert {k: v["value"] for k, v in res["ranks"].items()} == {
            "csr": 1, "cgr": 1, "cr": 1,
        }

    def test_cap_exit_code(self, tmp_path):
        gens = np.vstack([np.eye(7), -np.eye(7)]).tolist()
        code, res = run(tmp_path, "rank", {"generators": gens}, "--kind", "csr")
        assert code == 3

    def test_single_kind(self, tmp_path):
        code, res = run(tmp_path, "rank", load_fixture("square_cone_generators.json"),
                        "--kind", "cr")
        assert code == 0
        assert list(res["ranks"]) == ["cr"]


class TestDesign:
    def test_correlated_improvement(self, tmp_path):
        code, res = run(tmp_path, "design", load_fixture("correlated_line_samples.json"),
                        "--objective", "improvement", "--restriction", "res-l")
        assert code == 0
        assert res["design"]["k"] == 1

    def test_square_both_res_l(self, tmp_path):
        code, res = run(tmp_path, "design", load_fixture("square_cone_samples.json"),
                        "--objective", "both", "--restriction", "res-l")
        assert code == 0
        assert res["design"]["k"] == 4

    def test_optimality_positive_row(self, tmp_path):
        code, res = run(tmp_path, "design", load_fixture("square_cone_samples.json"),
                        "--objective", "optimality", "--restriction", "res-lm")
        assert code == 0
        assert res["design"]["k"] == 1
        assert res["design"]["A"] == [[1.0, 1.0, 1.0, 1.0]]

    def test_minimality_not_certified_without_relint(self, tmp_path):
        code, res = run(tmp_path, "design", load_fixture("improvement_without_relint.json"),
                        "--objective", "improvement", "--restriction", "res-cs")
        assert code == 0
        assert res["design"]["minimality_certified"] is False

    @pytest.mark.parametrize("value", [True, False, None])
    def test_relint_assertion_is_a_json_boolean(self, tmp_path, value):
        doc = {**load_fixture("improvement_without_relint.json"), "assert_relint_nonempty": value}
        code, res = run(tmp_path, "design", doc,
                        "--objective", "improvement", "--restriction", "res-cs")
        assert code == 0
        assert res["design"]["minimality_certified"] is (value is True)

    def test_csv_input(self, tmp_path):
        csv = "-1,0\n1,1\n0,0.5\n"
        code, res = run(tmp_path, "design", csv, "--csv",
                        "--objective", "improvement", "--restriction", "res-cs",
                        name="samples.csv")
        assert code == 0
        assert res["design"]["k"] == 1


class TestVerify:
    def test_relint_free_improvement(self, tmp_path):
        code, res = run(tmp_path, "verify", load_fixture("improvement_without_relint.json"))
        assert code == 0
        by_name = {r["check"]: r["passed"] for r in res["verification"]}
        assert by_name["improvement"] is True

    def test_grid_optimality_failure(self, tmp_path):
        doc = {
            "metrics_samples": linf_grid(2, 0.5).tolist(),
            "design": {"A": [[1.0, 0.0]]},
            "objective": "optimality",
        }
        code, res = run(tmp_path, "verify", doc)
        assert code == 4
        assert res["declared_passed"] is False

    def test_identity_passes(self, tmp_path):
        doc = {
            "metrics_samples": [[0, 0], [1, 2], [2, 1]],
            "design": {"A": [[1, 0], [0, 1]]},
        }
        code, res = run(tmp_path, "verify", doc)
        assert code == 0

    def test_objective_flag_wins_over_file(self, tmp_path):
        # [1, 1] ties (1, 2) with (2, 1): improvement fails, optimality holds
        doc = {
            "metrics_samples": [[0, 0], [1, 2], [2, 1]],
            "design": {"A": [[1, 1]]},
            "objective": "improvement",
        }
        code, res = run(tmp_path, "verify", doc)
        assert code == 4 and res["declared_passed"] is False
        code, res = run(tmp_path, "verify", doc, "--objective", "optimality")
        assert code == 0 and res["declared_passed"] is True
        del doc["objective"]
        code, _ = run(tmp_path, "verify", doc)
        assert code == 4

    def test_restriction_flag_wins_over_file(self, tmp_path):
        doc = {
            "metrics_samples": [[0, 0], [1, 2], [2, 1]],
            "design": {"A": [[2, 0], [0, 1]]},
        }
        code, res = run(tmp_path, "verify", doc)
        assert code == 0
        assert [r["check"] for r in res["verification"]] == ["improvement", "optimality"]
        code, res = run(tmp_path, "verify", doc, "--restriction", "res-cs")
        assert code == 4
        assert res["verification"][-1]["check"] == "restriction-res-cs"
        doc["restriction"] = "res-cs"
        code, _ = run(tmp_path, "verify", doc, "--restriction", "res-l")
        assert code == 0

    def test_dimension_mismatch(self, tmp_path):
        doc = {"metrics_samples": [[0, 0], [1, 1]], "design": {"A": [[1, 0, 0]]}}
        code, _ = run(tmp_path, "verify", doc)
        assert code == 2


class TestErrorsAndDeterminism:
    def test_malformed_json(self, tmp_path):
        code, _ = run(tmp_path, "rank", "{not json")
        assert code == 2
        # ragged or non-numeric matrices are input errors, not tracebacks
        for command, key in (("rank", "generators"), ("design", "metrics_samples")):
            for bad in ([[1.0, 2.0], [3.0]], [["a", "b"]], [[[1.0]], [[2.0]]]):
                code, _ = run(tmp_path, command, {key: bad})
                assert code == 2

    def test_missing_generators(self, tmp_path):
        code, _ = run(tmp_path, "rank", {"metrics_samples": [[1, 2]]})
        assert code == 2

    def test_missing_file(self, tmp_path):
        code = main(["rank", "--in", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out.json"), "--reproducible"])
        assert code == 2

    def test_bad_restriction_value(self, tmp_path):
        code, _ = run(tmp_path, "design", {
            "metrics_samples": [[0, 0], [1, 1]], "restriction": "res-xx",
        })
        assert code == 2

    def test_reproducible_outputs_identical(self, tmp_path):
        doc = load_fixture("square_cone_samples.json")
        in_path = tmp_path / "p.json"
        in_path.write_text(json.dumps(doc))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["design", "--in", str(in_path), "--out", str(out),
                         "--objective", "both", "--restriction", "res-lm",
                         "--reproducible"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_full_precision_round_trip(self, tmp_path):
        code, res = run(tmp_path, "design", load_fixture("square_cone_samples.json"),
                        "--objective", "improvement", "--restriction", "res-l")
        assert code == 0
        # floats survive a serialize/parse cycle exactly
        again = json.loads(json.dumps(res))
        assert again == res

    def test_tolerance_override(self, tmp_path):
        code, res = run(tmp_path, "rank", load_fixture("square_cone_generators.json"),
                        "--tol-cone", "1e-7")
        assert code == 0
        assert res["tolerances"]["cone_tol"] == 1e-7


COMMANDS = ("decompose", "rank", "design", "verify")
VALID = {
    "generators": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    "metrics_samples": [[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]],
    "design": {"A": [[1.0, 0.0], [0.0, 1.0]]},
}
BIG = 1e8 * np.array(VALID["generators"])


def _with_matrix(command, value):
    """VALID with the matrix that ``command`` reads replaced by ``value``."""
    key = "generators" if command in ("decompose", "rank") else "metrics_samples"
    return {**VALID, key: value}


# name -> (problem document for a command, documented exit code)
MALFORMED = {
    "tolerances-string": (lambda c: {**VALID, "tolerances": "abc"}, 2),
    "tolerances-list": (lambda c: {**VALID, "tolerances": [1, 2]}, 2),
    "tolerances-unknown-key": (lambda c: {**VALID, "tolerances": {"pivot_tol": 1e-9}}, 2),
    "tolerance-string": (lambda c: {**VALID, "tolerances": {"cone_tol": "1e-8"}}, 2),
    "document-array": (lambda c: [VALID], 2),
    "unwritable-out": (lambda c: VALID, 2),
    "restriction-list": (lambda c: {**VALID, "restriction": ["res-l"]}, 2),
    "ragged-matrix": (lambda c: _with_matrix(c, [[1.0, 2.0], [3.0]]), 2),
    "nan-matrix": (lambda c: _with_matrix(c, [[float("nan"), 1.0], [0.0, 1.0]]), 2),
    "3d-matrix": (lambda c: _with_matrix(c, [[[1.0]], [[2.0]]]), 2),
    "missing-keys": (lambda c: {}, 2),
    "relint-string": (lambda c: {**VALID, "assert_relint_nonempty": "false"}, 2),
    # a JSON integer literal beyond the float range
    "int-overflow": (lambda c: _with_matrix(c, [[10**400, 1], [0, 1]]), 2),
    "cone-at-1e8": (lambda c: {**VALID, "generators": BIG.tolist(),
                               "metrics_samples": BIG.tolist()}, 0),
}


@pytest.mark.parametrize("case", list(MALFORMED))
@pytest.mark.parametrize("command", COMMANDS)
def test_exit_code_contract(tmp_path, capsys, command, case):
    make_doc, expected = MALFORMED[case]
    in_path = tmp_path / "problem.json"
    in_path.write_text(json.dumps(make_doc(command)))
    out_dir = tmp_path / ("missing-dir" if case == "unwritable-out" else "")
    code = main([command, "--in", str(in_path), "--out", str(out_dir / "result.json"),
                 "--reproducible"])
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    lines = err.splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert lines == []


@pytest.mark.parametrize("command", COMMANDS)
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    # json.load recurses once per nesting level; json.dumps cannot write this
    code, res = run(tmp_path, command, "[" * 100_000 + "]" * 100_000)
    err = capsys.readouterr().err
    assert code == 2
    assert res is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed input file")


@pytest.mark.parametrize("command", ["decompose", "design", "verify"])
def test_kind_is_rank_only(tmp_path, capsys, command):
    code, res = run(tmp_path, command, VALID, "--kind", "all")
    err = capsys.readouterr().err
    assert code == 2
    assert res is None
    assert err == f"error: --kind applies to rank only, not {command}\n"


def test_flag_defaults_and_choices_follow_the_library():
    # the README's "--kind defaults to all" and "--max-lineality-dim
    # defaults to 6" are cone_ranks' own kinds and default
    from conescore.cli import build_parser
    from conescore.ranks import DEFAULT_MAX_LINEALITY_DIM

    ap = build_parser()
    argv = ["rank", "--in", "p.json", "--out", "r.json"]
    args = ap.parse_args(argv)
    assert args.max_lineality_dim == DEFAULT_MAX_LINEALITY_DIM == 6
    assert args.kind is None
    assert [k.value for k in RankKind] == ["csr", "cgr", "cr"]
    for kind in ("csr", "cgr", "cr", "all"):
        assert ap.parse_args([*argv, "--kind", kind]).kind == kind


def test_verify_rejects_csv_input(tmp_path, capsys):
    code, res = run(tmp_path, "verify", "0,0\n1,2\n2,1\n", "--csv", name="samples.csv")
    assert code == 2
    assert res is None
    assert capsys.readouterr().err == "error: verify needs a JSON problem file (design block)\n"


def test_negative_max_lineality_dim_is_an_input_error(tmp_path, capsys):
    code, res = run(tmp_path, "rank", {"generators": [[1, 0], [-1, 0], [0, 1]]},
                    "--max-lineality-dim", "-1")
    err = capsys.readouterr().err
    assert code == 2
    assert res is None
    assert err == "error: --max-lineality-dim must be >= 0, got -1\n"


@pytest.mark.parametrize("name, scale, command", [
    ("square_cone_samples.json", 8e307, "design"),
    ("square_cone_samples.json", 1.7e308, "design"),
    ("nonpointed_5d_samples.json", 1.7e308, "design"),
    ("correlated_line_samples.json", 1.7e308, "design"),
    ("improvement_without_relint.json", 1.7e308, "design"),
    ("improvement_without_relint.json", 1.7e308, "verify"),
])
def test_samples_whose_centred_values_overflow_exit_2(tmp_path, capsys, name, scale, command):
    # the centroid, or the samples minus it, overflow: the hull's SVD would
    # hang, raise LinAlgError or answer from non-finite values
    args = ("--objective", "both", "--restriction", "res-lm") if command == "design" else ()
    code, res = run(tmp_path, command, scaled_fixture(name, scale), *args)
    assert code == 2
    assert res is None
    assert capsys.readouterr().err == (
        "error: samples: centred samples overflow (entries must be finite)\n")


def test_iteration_cap_exits_3(tmp_path, capsys, monkeypatch):
    import conescore.lp

    monkeypatch.setattr(conescore.lp, "pivot_loop", lambda T, basis, eps, max_iter: 1)
    code, res = run(tmp_path, "rank", load_fixture("square_cone_generators.json"))
    err = capsys.readouterr().err
    assert code == 3
    assert res is None
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: simplex did not terminate")
