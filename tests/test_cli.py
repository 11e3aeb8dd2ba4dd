"""Tests for the JSON formats and the command-line contract."""

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from troplift import cli
from troplift.cli import main
from troplift.formats import (
    FormatError,
    parse_instance,
    parse_point,
    parse_scalar,
    parse_witness,
    render_series,
    serialize_instance,
    serialize_point,
    serialize_scalar,
    serialize_witness,
)
from troplift.lift import MAX_GRID_SPAN, Instance
from troplift.series import INF, LaurentPolynomial, PuiseuxFraction


def px(terms):
    return PuiseuxFraction.from_terms(terms)


ONE = PuiseuxFraction.one()
T = PuiseuxFraction.t_power(1)
W1 = Instance.from_rows([[ONE, T]], [ONE])

W1_JSON = {
    "q": 1,
    "A": [[{"num": [[0, "1"]]}, {"num": [[1, "1"]]}]],
    "b": [{"num": [[0, "1"]]}],
}


class TestInstanceFormat:
    def test_minimal_instance(self):
        inst = parse_instance({"q": 1, "A": [[{"num": [[0, "1"]]}]],
                               "b": [{"num": [[0, "1"]]}]})
        assert inst == Instance.from_rows([[ONE]], [ONE])

    def test_ratio_entry(self):
        inst = parse_instance({
            "q": 1,
            "A": [[{"num": [[0, "1"]], "den": [[0, "1"], [1, "-1"]]}]],
            "b": [{"num": []}],
        })
        expected = PuiseuxFraction(LaurentPolynomial.one(),
                                   LaurentPolynomial.from_terms({0: 1, 1: -1}))
        assert inst.matrix[0][0] == expected

    def test_file_grid_applies_to_entries(self):
        inst = parse_instance({"q": 2, "A": [[{"num": [[1, "1"]]}]],
                               "b": [{"num": []}]})
        assert inst.matrix[0][0] == px({F(1, 2): 1})

    def test_entry_grid_overrides_file_grid(self):
        inst = parse_instance({"q": 2, "A": [[{"q": 3, "num": [[1, "1"]]}]],
                               "b": [{"num": []}]})
        assert inst.matrix[0][0] == px({F(1, 3): 1})

    def test_round_trip_is_identity(self):
        inst = Instance.from_rows(
            [[px({F(-1, 2): F(3, 7), 2: -1}), ONE],
             [PuiseuxFraction(LaurentPolynomial.from_terms({0: 2, 1: 2}),
                              LaurentPolynomial.from_terms({0: 3, 2: -5})),
              px({})]],
            [px({-3: 1}), ONE])
        blob = serialize_instance(inst)
        again = parse_instance(json.loads(json.dumps(blob)))
        assert again == inst
        assert serialize_instance(again) == blob

    def test_rejects_floats(self):
        with pytest.raises(FormatError):
            parse_instance({"q": 1, "A": [[{"num": [[0, "0.5"]]}]],
                            "b": [{"num": []}]})
        with pytest.raises(FormatError):
            parse_instance({"q": 1, "A": [[{"num": [[0, 0.5]]}]],
                            "b": [{"num": []}]})

    def test_rejects_unknown_fields(self):
        bad = dict(W1_JSON)
        bad["comment"] = "hi"
        with pytest.raises(FormatError) as err:
            parse_instance(bad)
        assert "comment" in str(err.value)

    def test_rejects_shape_lies(self):
        bad = dict(W1_JSON)
        bad["n"] = 3
        with pytest.raises(FormatError):
            parse_instance(bad)

    def test_rejects_zero_denominator_strings(self):
        with pytest.raises(FormatError):
            parse_instance({"q": 1, "A": [[{"num": [[0, "1/0"]]}]],
                            "b": [{"num": []}]})

    def test_span_budget_locates_the_entry(self):
        one = {"num": [[0, "1"]]}
        wide = {"num": [[0, "1"], [MAX_GRID_SPAN + 1, "1"]]}
        with pytest.raises(FormatError) as exc:
            parse_instance({"A": [[one, one]], "b": [wide]})
        assert exc.value.location == "instance.b[0]"
        # spans count steps of the common grid: q = 10^6 and 10^6+1 put a
        # one-step entry 10^6+1 steps wide on the shared grid
        near = {"q": 10**6, "num": [[0, "1"], [1, "1"]]}
        coprime = {"q": 10**6 + 1, "num": [[1, "1"]]}
        with pytest.raises(FormatError) as exc:
            parse_instance({"A": [[one, one], [coprime, near]],
                            "b": [one, one]})
        assert exc.value.location == "instance.A[1][1]"
        # on its own grid the same entry is far inside the budget
        inst = parse_instance({"A": [[near]], "b": [one]})
        assert inst.matrix[0][0] == px({0: 1, F(1, 10**6): 1})
        with pytest.raises(ValueError):
            Instance.from_rows([[px({0: 1, MAX_GRID_SPAN + 1: 1})]], [ONE])
        assert Instance.from_rows([[px({0: 1, MAX_GRID_SPAN: 1})]], [ONE])
        # negative exponents count by their absolute value
        with pytest.raises(ValueError):
            Instance.from_rows([[px({-MAX_GRID_SPAN - 1: 1, 0: 1})]], [ONE])
        assert Instance.from_rows([[px({-MAX_GRID_SPAN: 1, 0: 1})]], [ONE])

    def test_scalar_budget_counts_its_own_terms(self):
        one = {"num": [[0, "1"]]}

        def parse(entry):
            return parse_instance({"A": [[entry]], "b": [one]})

        # checked before the fraction reduces, so a ratio that would
        # reduce to 1 + t is still too far out
        with pytest.raises(FormatError) as exc:
            parse({"num": [[20000, "1"], [20001, "1"]],
                   "den": [[20000, "1"]]})
        assert exc.value.location == "instance.A[0][0]"
        # steps count on the grid of the scalar's own exponents: t^10000
        # written on q = 2 is 10000 steps, t^(20001/2) is 20001
        assert parse({"q": 2, "num": [[2 * MAX_GRID_SPAN, "1"]]})
        with pytest.raises(FormatError):
            parse({"q": 2, "num": [[2 * MAX_GRID_SPAN + 1, "1"]]})
        # repeated exponents are summed first, so terms that cancel are
        # not counted
        inst = parse({"num": [[0, "1"], [20000, "1"], [20000, "-1"]]})
        assert inst.matrix[0][0] == ONE


class TestPointAndWitnessFormats:
    def test_point_round_trip(self):
        v = (F(1, 2), INF, F(-3))
        assert parse_point(json.loads(json.dumps(serialize_point(v)))) == v

    def test_point_rejects_bad_strings(self):
        with pytest.raises(FormatError):
            parse_point({"v": ["1.5"]})
        with pytest.raises(FormatError):
            parse_point({"v": [1]})

    def test_witness_round_trip(self):
        x = (px({0: 1, 1: -1}), ONE)
        parsed = parse_witness(json.loads(json.dumps(serialize_witness(x))))
        assert parsed == x

    def test_witness_from_result_file(self):
        x = (px({-1: F(2, 3)}),)
        blob = {"verdict": "member",
                "witness": [json.loads(json.dumps(s))
                            for s in serialize_witness(x)["x"]]}
        assert parse_witness(blob) == x


def reference_parse_scalar(obj, default_q, loc):
    """The parser with one Fraction per coefficient that the dense one replaced."""
    q = obj.get("q", default_q)
    terms = []
    for key in ("num", "den"):
        if key in obj:
            summed = {}
            for k, c in obj[key]:
                summed[k] = summed.get(k, F(0)) + F(c)
            terms.append(summed)
    ks = [k for t in terms for k, c in t.items() if c]
    common = math.gcd(q, *ks)
    steps = max(map(abs, ks), default=0) // common
    if steps > MAX_GRID_SPAN:
        raise FormatError("puts an exponent %d steps of its grid t^(1/%d) "
                          "from 0; the limit is %d"
                          % (steps, q // common, MAX_GRID_SPAN), loc)
    num, *den = [LaurentPolynomial.from_terms({F(k, q): c
                                               for k, c in t.items()})
                 for t in terms]
    den = den[0] if den else LaurentPolynomial.one()
    if den.is_zero:
        raise FormatError("denominator is zero", loc + ".den")
    return PuiseuxFraction(num, den)


def reference_serialize_scalar(x):
    """The serializer that went through terms(), one Fraction per slot."""
    def fmt(c):
        return (str(c.numerator) if c.denominator == 1
                else "%d/%d" % (c.numerator, c.denominator))

    q = math.lcm(x.num.q, x.den.q)
    out = {"q": q, "num": [[int(e * q), fmt(c)] for e, c in x.num.terms()]}
    if not x.den.is_one:
        out["den"] = [[int(e * q), fmt(c)] for e, c in x.den.terms()]
    return out


def json_scalar(rng):
    """(entry, file grid): duplicate and cancelling exponents, mixed and
    unreduced denominators, coarsening grids, entry grids, long numbers."""
    step = rng.choice((1, 2, 3, 6))  # q = 6 with step 2 coarsens

    def coefficient():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice(("0", "-0", "1", "-1", "2/4", "-3/6"))
        if kind == 1:
            return "%d/%d" % (rng.randint(-20, 20), rng.randint(1, 12))
        digits = rng.randint(200, 400)
        n = rng.randint(-10 ** digits, 10 ** digits)
        if kind == 2:
            return str(n)
        return "%d/%d" % (n, rng.randint(1, 10 ** digits))

    def terms():
        out = []
        for _ in range(rng.randint(0, 5)):
            k, c = step * rng.randint(-3, 3), coefficient()
            out.append([k, c])
            if rng.randrange(4) == 0:  # a pair that cancels
                out.append([k, c[1:] if c.startswith("-") else "-" + c])
        rng.shuffle(out)
        return out

    entry = {"num": terms()}
    if rng.randrange(2):
        entry["den"] = terms()
    if rng.randrange(2):
        entry["q"] = rng.choice((1, 2, 3, 6))
    return entry, rng.choice((1, 2, 6))


class TestDenseCodec:
    def test_matches_fraction_reference(self):
        rng = random.Random(20261019)
        for _ in range(300):
            entry, file_q = json_scalar(rng)
            try:
                want = reference_parse_scalar(entry, file_q, "x")
            except FormatError as exc:
                with pytest.raises(FormatError) as got:
                    parse_scalar(entry, file_q, "x")
                assert str(got.value) == str(exc)
                continue
            x = parse_scalar(entry, file_q, "x")
            assert x == want
            for y in (x, x * x + ONE):
                assert (json.dumps(serialize_scalar(y))
                        == json.dumps(reference_serialize_scalar(y)))


class TestRenderSeries:
    def test_exact_polynomial_has_no_tail(self):
        assert render_series(px({0: 1, 1: -1}), 3) == "1 - t"

    def test_ratio_shows_tail(self):
        geom = ONE / px({0: 1, 1: -1})
        assert render_series(geom, 2) == "1 + t + t^2 + O(t^3)"


class TestCliContract:
    @pytest.fixture()
    def files(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(W1_JSON))

        def point(coords):
            p = tmp_path / "point.json"
            p.write_text(json.dumps({"v": coords}))
            return str(p)

        return tmp_path, str(inst), point

    def test_check_member(self, files, capsys):
        tmp, inst, point = files
        assert main(["check", "-i", inst, "-p", point(["0", "0"])]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "member"
        assert parse_witness({"x": out["witness"]}) == (px({0: 1, 1: -1}), ONE)
        timings = out["timings"]
        assert {"parse_ms", "decide_ms", "serialize_ms"} <= set(timings)
        assert timings["total_ms"] == pytest.approx(
            timings["parse_ms"] + timings["decide_ms"]
            + timings["serialize_ms"], abs=0.01)

    def test_check_not_member_reason(self, files, capsys):
        tmp, inst, point = files
        assert main(["check", "-i", inst, "-p", point(["1", "0"])]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "not_member"
        assert out["reason"] == "System3Infeasible"
        assert "witness" not in out

    def test_lift_alias_and_expand(self, files, capsys):
        tmp, inst, point = files
        assert main(["lift", "-i", inst, "-p", point(["0", "0"]),
                     "--expand", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness_expanded"] == ["1 - t", "1"]

    def test_point_length_mismatch_is_input_error(self, files, capsys):
        tmp, inst, point = files
        assert main(["check", "-i", inst, "-p", point(["0"])]) == 2

    def test_malformed_instance(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"q": 1, "A": [[{"num": [[0, "0.5"]]}]],
                                   "b": [{"num": []}]}))
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"v": ["0"]}))
        assert main(["check", "-i", str(bad), "-p", str(p)]) == 2
        err = capsys.readouterr().err
        assert "A[0][0]" in err

    def test_oversized_exponent_exits_2_fast(self, tmp_path, capsys):
        inst = tmp_path / "big.json"
        inst.write_text('{"A":[[{"num":[[0,"1"],[3000000,"1"]]},'
                        '{"num":[[0,"2"],[1,"1"]]}]],"b":[{"num":[[0,"1"]]}]}')
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"v": ["0", "0"]}))
        t0 = time.perf_counter()
        assert main(["check", "-i", str(inst), "-p", str(p)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "instance.A[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, v, location", [
        # a huge point coordinate against a tiny instance
        ([["1 + t", "2 + t"]], ["0", "3000000"], "point.v[1]"),
        # monomials on nearly coprime grids: each spans 0 steps, but the
        # common grid is about 10^12 and t^(1/10^6) sits 10^6+1 steps out
        ([["t^(1/1000000)", "t^(1/1000001)"], ["1", "2"]], ["0", "0"],
         "instance.A[0][0]"),
        # a monomial far from exponent 0, also of span 0
        ([["t^3000000", "2 + t"], ["1", "3"]], ["0", "0"],
         "instance.A[0][0]"),
        # a coordinate's denominator refines the common grid: on
        # t^(1/1000033) the instance's t sits 1000033 steps out
        ([["1 + t", "2 + t"]], ["0", "1/1000033"], "point.v[1]"),
        # entries refused before their dense lists are built or their
        # fraction is reduced
        ([["1 + t^10000000000000"]], ["0"], "instance.A[0][0]"),
        ([["(1 - t^1000000)/(1 - t^999999)"]], ["0"], "instance.A[0][0]"),
    ])
    def test_exponent_budget_exits_2_fast(self, tmp_path, capsys, entries, v,
                                          location):
        scalars = {
            "1": {"num": [[0, "1"]]},
            "2": {"num": [[0, "2"]]},
            "3": {"num": [[0, "3"]]},
            "1 + t": {"num": [[0, "1"], [1, "1"]]},
            "2 + t": {"num": [[0, "2"], [1, "1"]]},
            "t^3000000": {"num": [[3000000, "1"]]},
            "t^(1/1000000)": {"q": 10**6, "num": [[1, "1"]]},
            "t^(1/1000001)": {"q": 10**6 + 1, "num": [[1, "1"]]},
            "1 + t^10000000000000": {"num": [[0, "1"],
                                             [10000000000000, "1"]]},
            "(1 - t^1000000)/(1 - t^999999)": {
                "num": [[0, "1"], [1000000, "-1"]],
                "den": [[0, "1"], [999999, "-1"]]},
        }
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "A": [[scalars[x] for x in row] for row in entries],
            "b": [scalars["1"]] * len(entries)}))
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"v": v}))
        t0 = time.perf_counter()
        assert main(["check", "-i", str(inst), "-p", str(p)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "input error: %s:" % location in capsys.readouterr().err

    def test_oversized_witness_exits_2_fast(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"A": [[{"num": [[0, "1"], [1, "1"]]}]],
                                    "b": [{"num": [[0, "1"]]}]}))
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"v": ["0"]}))
        w = tmp_path / "w.json"
        w.write_text(json.dumps(
            {"x": [{"num": [[0, "1"], [10000000000000, "1"]]}]}))
        t0 = time.perf_counter()
        assert main(["verify", "-i", str(inst), "-p", str(p),
                     "-w", str(w)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "input error: witness.x[0]:" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["3000000", "10000000000000",
                                       "-10001", "20001/2", "1e-20000000",
                                       "1e99999999"])
    def test_expand_order_budget_exits_2_fast(self, tmp_path, capsys, order):
        # the grid is that of the instance and the point: here t^(1/2)
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"A": [[{"num": [[0, "1"], [1, "1"]]}]],
                                    "b": [{"q": 2, "num": [[1, "1"]]}]}))
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"v": ["1/2"]}))
        t0 = time.perf_counter()
        assert main(["check", "-i", str(inst), "-p", str(p),
                     "--expand", order]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "input error: --expand:" in capsys.readouterr().err
        # the farthest order on that grid is admitted
        assert main(["check", "-i", str(inst), "-p", str(p),
                     "--expand", "5000"]) == 0

    def test_missing_file(self, files):
        tmp, inst, point = files
        assert main(["check", "-i", str(tmp / "nope.json"),
                     "-p", point(["0", "0"])]) == 2

    def test_verify_round_trip(self, files, capsys):
        tmp, inst, point = files
        pt = point(["0", "0"])
        main(["check", "-i", inst, "-p", pt])
        result = json.loads(capsys.readouterr().out)
        wfile = tmp / "witness.json"
        wfile.write_text(json.dumps({"x": result["witness"]}))
        assert main(["verify", "-i", inst, "-p", pt, "-w", str(wfile)]) == 0
        assert json.loads(capsys.readouterr().out) == {"verified": True}
        # a wrong point must fail verification
        assert main(["verify", "-i", inst, "-p", point(["1", "0"]),
                     "-w", str(wfile)]) == 3

    def test_oracle_subcommand(self, files, capsys):
        tmp, inst, point = files
        assert main(["oracle", "-i", inst, "-p", point(["0", "0"])]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "member"
        assert main(["oracle", "-i", inst, "-p", point(["1", "0"])]) == 3

    def test_oracle_guard(self, files, tmp_path, capsys):
        wide = {"q": 1,
                "A": [[{"num": [[0, "1"]]} for _ in range(13)]],
                "b": [{"num": []}]}
        ifile = tmp_path / "wide.json"
        ifile.write_text(json.dumps(wide))
        pfile = tmp_path / "pt.json"
        pfile.write_text(json.dumps({"v": ["0"] * 13}))
        assert main(["oracle", "-i", str(ifile), "-p", str(pfile)]) == 2

    def test_gen_writes_consistent_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "case")
        assert main(["gen", "--seed", "5", "--m", "2", "--n", "4",
                     "--member", "-o", prefix]) == 0
        capsys.readouterr()
        assert main(["verify", "-i", prefix + ".instance.json",
                     "-p", prefix + ".point.json",
                     "-w", prefix + ".witness.json"]) == 0
        assert main(["check", "-i", prefix + ".instance.json",
                     "-p", prefix + ".point.json"]) == 0

    def test_gen_exponent_range_is_bounded(self, tmp_path, capsys,
                                           monkeypatch):
        # dense lists are sized by the exponent span, and b = A*x doubles
        # it; generating at 10^9 would take about 10^9 slots, so a
        # generator call fails the test before it allocates
        def refuse(cfg):
            raise AssertionError("generated from %r" % (cfg,))

        with monkeypatch.context() as patch:
            patch.setattr(cli, "gen_random", refuse)
            t0 = time.perf_counter()
            assert main(["gen", "--seed", "5", "--m", "2", "--n", "4",
                         "--exp-hi", "1000000000"]) == 2
            assert time.perf_counter() - t0 < 1.0
        assert "input error: gen flags:" in capsys.readouterr().err
        # the widest admitted range gives input that `check` takes
        prefix = str(tmp_path / "wide")
        assert main(["gen", "--seed", "5", "--m", "2", "--n", "4",
                     "--exp-lo", str(-MAX_GRID_SPAN // 2),
                     "--exp-hi", str(MAX_GRID_SPAN // 2),
                     "--member", "-o", prefix]) == 0
        assert main(["check", "-i", prefix + ".instance.json",
                     "-p", prefix + ".point.json"]) == 0

    def test_gen_deterministic(self, tmp_path, capsys):
        args = ["gen", "--seed", "11", "--m", "1", "--n", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "3,4", "--seed", "2", "--reps", "1",
                     "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,m,decide_ms,oracle_ms"
        assert len(lines) == 3
        for line in lines[1:]:
            n, m, decide_ms, oracle_ms = line.split(",")
            assert float(decide_ms) >= 0
            assert oracle_ms != "skipped"

    def test_bench_json(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--sizes", "3,4,6", "--seed", "2", "--reps",
                     "2", "--oracle-max-cols", "0", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [row["n"] for row in report["rows"]] == [3, 4, 6]
        for row in report["rows"]:
            assert len(row["decide_ms"]) == len(row["seeds"]) == 2
            assert min(row["decide_ms"]) <= row["decide_ms_median"] \
                <= max(row["decide_ms"])
            assert row["oracle_ms_median"] is None
        assert isinstance(report["loglog_slope"], float)
        assert [(k["op"], k["terms"], k["bits"])
                for k in report["kernels"]] == [
            (op, terms, bits)
            for op in ("LaurentPolynomial.__mul__", "laurent_divexact",
                       "laurent_gcd", "grid_expand")
            for terms, bits in ((40, 26), (121, 144), (254, 363))]
        assert all(k["ms"] > 0 for k in report["kernels"])

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_bench_rejects_nonpositive_reps(self, reps, capsys):
        assert main(["bench", "--sizes", "3", "--reps", reps]) == 2
        assert "bench --reps" in capsys.readouterr().err

    def test_bench_skips_oracle_beyond_guard(self, capsys):
        assert main(["bench", "--sizes", "14", "--seed", "2",
                     "--reps", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[1].endswith("skipped")

    # numbers past the interpreter's 4,300-digit int conversion limit
    @pytest.mark.parametrize("instance, v, location", [
        ('{"A":[[{"num":[[0,"%s"]]}]],"b":[{"num":[[0,"1"]]}]}' % ("7" * 5000),
         '"0"', "instance.A[0][0].num[0].coefficient"),
        ('{"A":[[{"num":[[0,"1/%s"]]}]],"b":[{"num":[[0,"1"]]}]}' % ("7" * 5000),
         '"0"', "instance.A[0][0].num[0].coefficient"),
        ('{"A":[[{"num":[[0,"1"]]}]],"b":[{"num":[[0,"1"]]}]}',
         '"%s"' % ("7" * 5000), "point.v[0]"),
        ('{"A":[[{"num":[[%s,"1"]]}]],"b":[{"num":[[0,"1"]]}]}' % ("7" * 5000),
         '"0"', "instance"),
    ], ids=["coefficient-numerator", "coefficient-denominator",
            "point-coordinate", "json-integer-exponent"])
    def test_over_long_number_exits_2_fast(self, tmp_path, capsys, instance,
                                           v, location):
        inst = tmp_path / "inst.json"
        inst.write_text(instance)
        p = tmp_path / "p.json"
        p.write_text('{"v":[%s]}' % v)
        t0 = time.perf_counter()
        assert main(["check", "-i", str(inst), "-p", str(p)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "input error: %s:" % location in capsys.readouterr().err

    def test_fine_grid_entry_near_zero(self, tmp_path, capsys):
        # 1 + t^(1/10^20) is one step of its grid from 0, inside every
        # budget, so no list built for it may grow with the grid's 10^20
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "A": [[{"q": 10 ** 20, "num": [[0, "1"], [1, "1"]]},
                   {"num": [[0, "1"]]}]],
            "b": [{"num": [[0, "1"]]}]}))
        p = tmp_path / "p.json"
        p.write_text('{"v": ["0", "0"]}')
        t0 = time.perf_counter()
        assert main(["check", "-i", str(inst), "-p", str(p)]) == 0
        assert time.perf_counter() - t0 < 1.0
        result = tmp_path / "result.json"
        result.write_text(capsys.readouterr().out)
        e = F(1, 10 ** 20)
        assert parse_witness(json.loads(result.read_text())) == (
            px({0: 2}), px({0: -1, e: -2}))
        assert main(["verify", "-i", str(inst), "-p", str(p),
                     "-w", str(result)]) == 0
        assert json.loads(capsys.readouterr().out) == {"verified": True}

    @pytest.mark.parametrize("grid", [10 ** 20, 10 ** 6])
    def test_coarse_witness_on_fine_grid_exits_2_fast(self, tmp_path, capsys,
                                                      grid):
        # x_0 = 1 + t lies `grid` steps of the instance's grid t^(1/grid)
        # from 0, so verifying A*x = b on that grid would build a list
        # that long: the witness is charged there first, as the point is
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "A": [[{"q": grid, "num": [[0, "1"], [1, "1"]]},
                   {"num": [[0, "1"]]}]],
            "b": [{"num": [[0, "1"]]}]}))
        p = tmp_path / "p.json"
        p.write_text('{"v": ["0", "0"]}')
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"x": [{"num": [[0, "1"], [1, "1"]]},
                                       {"num": [[0, "1"]]}]}))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            assert main(["verify", "-i", str(inst), "-p", str(p),
                         "-w", str(w)]) == 2
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        # a list of 10^6 slots takes 8 MB of pointers alone
        assert peak < 10 ** 6, peak
        assert "input error: witness.x[0]:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["instance", "point", "witness"])
    def test_deeply_nested_json_exits_2(self, files, capsys, bad):
        tmp, inst, point = files
        paths = {"instance": inst, "point": point(["0", "0"]),
                 "witness": str(tmp / "witness.json")}
        (tmp / "witness.json").write_text('{"x": ["1", "1"]}')
        nested = tmp / "nested.json"
        nested.write_text("[" * 200_000 + "]" * 200_000)
        paths[bad] = str(nested)
        t0 = time.perf_counter()
        assert main(["verify", "-i", paths["instance"], "-p", paths["point"],
                     "-w", paths["witness"]]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert ("input error: %s: invalid JSON" % bad
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, bad", [
        ("check", "instance"), ("check", "point"), ("verify", "instance"),
        ("verify", "point"), ("verify", "witness")])
    def test_non_utf8_file_exits_2(self, files, capsys, command, bad):
        tmp, inst, point = files
        paths = {"instance": inst, "point": point(["0", "0"]),
                 "witness": str(tmp / "witness.json")}
        (tmp / "witness.json").write_text('{"x": ["1", "1"]}')
        # a UTF-16 byte-order mark, then bytes that are not UTF-8
        garbled = tmp / "garbled.json"
        garbled.write_bytes(b"\xff\xfe{\x00}\x00")
        paths[bad] = str(garbled)
        args = [command, "-i", paths["instance"], "-p", paths["point"]]
        if command == "verify":
            args += ["-w", paths["witness"]]
        assert main(args) == 2
        assert "input error: %s:" % bad in capsys.readouterr().err
