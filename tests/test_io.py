import json

import numpy as np
import pytest

import majorize as mj
from majorize.config import Config
from majorize.errors import FileFormatError, NotNormalizedError
from majorize.io import (
    format_float,
    lorenz_table_to_csv,
    lorenz_to_csv,
    read_distribution,
    round_float,
    smoothed_result_to_json,
    transfer_plan_from_json,
    transfer_plan_to_json,
    write_json,
    write_text,
)


class TestFormatFloat:
    def test_twelve_significant_digits(self):
        assert format_float(0.19999999999999996) == "0.2"
        assert format_float(1 / 3) == "0.333333333333"
        assert format_float(1.0) == "1"
        assert format_float(0.0) == "0"

    def test_negative_zero_normalized(self):
        assert format_float(-0.0) == "0"

    def test_round_float_parses_back(self):
        for x in (0.19999999999999996, 1 / 3, 0.6000000000000001, 1e-15):
            assert round_float(x) == float(format_float(x))

    def test_round_trip_is_stable(self):
        # formatting a formatted value changes nothing
        for x in (0.1234567890123456, 0.7, 2e-13):
            once = round_float(x)
            assert round_float(once) == once


class TestReadDistribution:
    def test_json(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"values": [0.1, 0.6, 0.3]}\n')
        d = read_distribution(f)
        assert d.values == pytest.approx([0.6, 0.3, 0.1], abs=1e-12)

    def test_json_label_ignored(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"values": [0.5, 0.5], "label": "coin"}\n')
        assert read_distribution(f).k == 2

    def test_csv(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0.5\n0.5\n0\n")
        d = read_distribution(f)
        assert d.values.tolist() == [0.5, 0.5, 0.0]

    def test_csv_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0.5\n\n0.5\n\n")
        assert read_distribution(f).k == 2

    def test_policy_flows_through(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("2\n1\n1\n")
        with pytest.raises(NotNormalizedError):
            read_distribution(f)
        d = read_distribution(f, Config(input_policy="renormalize"))
        assert d.values.tolist() == [0.5, 0.25, 0.25]

    def test_malformed_files(self, tmp_path):
        cases = {
            "a.json": "not json",
            "b.json": "[0.5, 0.5]",
            "c.json": '{"vals": [1.0]}',
            "d.json": '{"values": "0.5"}',
            "e.json": '{"values": [0.5, true]}',
            "f.csv": "0.5\nhello\n",
            "g.txt": "0.5\n0.5\n",
        }
        for name, text in cases.items():
            f = tmp_path / name
            f.write_text(text)
            with pytest.raises(FileFormatError):
                read_distribution(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_distribution(tmp_path / "nope.json")


class TestJsonEmission:
    def test_distribution_round_trips_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(6)
        for i in range(50):
            p = mj.make_distribution(rng.dirichlet(np.ones(5)), "renormalize")
            f = tmp_path / f"d{i}.json"
            write_json(f, {"values": p.values.tolist()})
            q = read_distribution(f, Config(input_policy="renormalize"))
            assert mj.l1_distance(p, q) < 1e-9

    def test_steepest_result(self):
        p = mj.make_distribution([0.6, 0.3, 0.1])
        obj = smoothed_result_to_json(mj.steepest(p, 0.4))
        assert obj == {
            "kind": "steepest",
            "delta": 0.4,
            "clamped": False,
            "values": [0.8, 0.2, 0.0],
            "meta": {"head_count": 1, "tail_value": 0.2},
        }

    def test_flattest_result(self):
        p = mj.make_distribution([0.6, 0.3, 0.1])
        obj = smoothed_result_to_json(mj.flattest(p, 0.4))
        assert obj == {
            "kind": "flattest",
            "delta": 0.4,
            "clamped": False,
            "values": [0.4, 0.3, 0.3],
            "meta": {
                "upper_level": 0.4,
                "lower_level": 0.3,
                "upper_count": 1,
                "lower_start": 2,
            },
        }

    def test_clamped_result_has_empty_meta(self):
        p = mj.make_distribution([0.9, 0.1])
        obj = smoothed_result_to_json(mj.steepest(p, 0.5))
        assert obj["clamped"] is True
        assert obj["meta"] == {}

    def test_result_values_reparse_as_distribution(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(50):
            p = mj.make_distribution(rng.dirichlet(np.ones(6)), "renormalize")
            sr = mj.steepest(p, float(rng.uniform(0, 2)))
            f = tmp_path / f"r{i}.json"
            write_json(f, smoothed_result_to_json(sr))
            obj = json.loads(f.read_text())
            q = mj.make_distribution(obj["values"], "renormalize")
            assert mj.l1_distance(sr.result, q) < 1e-9


class TestTransferPlanJson:
    def test_round_trip(self):
        p = mj.make_distribution([0.6, 0.4])
        plan = mj.transfer_plan(p, mj.uniform(2))
        obj = transfer_plan_to_json(plan)
        assert obj["steps"] == [{"i": 0, "j": 1, "t": 0.5}]
        assert obj["k"] == 2
        back = transfer_plan_from_json(obj)
        assert back.steps == plan.steps
        assert back.k == plan.k
        assert back.matrix == pytest.approx(plan.matrix, abs=1e-12)

    def test_numpy_integer_fields_round_trip(self):
        plan = mj.TransferPlan((mj.TTransform(np.int64(0), np.int64(1), 0.5),), np.int64(2))
        back = transfer_plan_from_json(json.loads(json.dumps(transfer_plan_to_json(plan))))
        assert back.steps == plan.steps
        assert back.k == 2

    def test_malformed(self):
        bad_steps = [[{"i": 0}]] + [[{"i": 0, "j": 1, "t": t}] for t in ("0.5", 10**400)] + [
            [{"i": i, "j": j, "t": 0.5}]
            for i, j in ((5, 1), (0, 2), (-1, 1), (0, -1), (0, 1.9), (True, 0), ("1", 0))
        ]
        objs = [{"k": 2}, {"steps": [{"i": 0, "j": 1, "t": 0.5}]}, {"steps": [], "k": 0}]
        objs += [{"steps": [], "k": k} for k in (2.9, "2", True)]
        objs += [{"steps": steps, "k": 2} for steps in bad_steps]
        for obj in objs:
            with pytest.raises(FileFormatError):
                transfer_plan_from_json(obj)


class TestCsvEmission:
    def test_lorenz_csv(self):
        p = mj.make_distribution([0.6, 0.3, 0.1])
        assert lorenz_to_csv(mj.lorenz(p)) == "l,cumulative\n0,0\n1,0.6\n2,0.9\n3,1\n"

    def test_lorenz_table(self):
        p = mj.make_distribution([0.6, 0.3, 0.1])
        text = lorenz_table_to_csv(
            mj.lorenz(p), mj.lorenz_steepest(p, 0.4), mj.lorenz_flattest(p, 0.4)
        )
        assert text == (
            "l,base,steepest,flattest\n"
            "0,0,0,0\n"
            "1,0.6,0.8,0.4\n"
            "2,0.9,1,0.7\n"
            "3,1,1,1\n"
        )

    def test_trailing_newline(self, tmp_path):
        p = mj.uniform(2)
        text = lorenz_to_csv(mj.lorenz(p))
        assert text.endswith("\n") and not text.endswith("\n\n")
        f = tmp_path / "c.csv"
        write_text(f, text)
        assert f.read_text() == text


def test_write_json_is_deterministic(tmp_path):
    obj = {"b": 1, "a": [0.5, 0.25]}
    f1, f2 = tmp_path / "x.json", tmp_path / "y.json"
    write_json(f1, obj)
    write_json(f2, obj)
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_text().endswith("\n")
