"""Command-line contract: config round trips, exit codes, report files."""

import json
import multiprocessing
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction

import pytest

from equidist.cli import FAMILY_ALIASES, RunConfig, main, parse_args, run
from equidist.generators import ArithmeticIndices, GeneratorSpec, _scalars_at
from equidist.stochastic import (
    FarPairCheck,
    GammaStream,
    LagScan,
    _draw_seeds,
    default_bit_source,
)


def run_cfg(capsys, **kwargs):
    code = run(RunConfig(**kwargs))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunConfig:
    def test_text_round_trip(self):
        cfg = RunConfig(
            command="wcud",
            family="multiplicative",
            base=3,
            d=2,
            m_components="3,-1",
            flag_threshold=0.75,
            output_path="/tmp/x.json",
        )
        assert RunConfig.from_text(cfg.to_text()) == cfg

    def test_from_text_skips_comments_and_blanks(self):
        cfg = RunConfig.from_text("# comment\n\ncommand=gamma\ncount=7\n")
        assert cfg.command == "gamma"
        assert cfg.count == 7

    def test_from_text_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            RunConfig.from_text("commannd=weyl\n")

    def test_from_text_rejects_bad_line(self):
        with pytest.raises(ValueError):
            RunConfig.from_text("just some words\n")

    def test_validate_rejects_bad_values(self):
        for bad in (
            dict(command="frobnicate"),
            dict(family="fibonacci"),
            dict(d=0),
            dict(o=-1),
            dict(workers=-1),
            dict(koksma_hi="1"),
            dict(m_components="1,x"),
            dict(output_format="xml"),
            dict(construction="stacked"),
        ):
            with pytest.raises(ValueError):
                RunConfig(**bad).validate()

    def test_multi_index_arity_check(self):
        cfg = RunConfig(d=2, m_components="1")
        with pytest.raises(ValueError):
            cfg.multi_index()


class TestParseArgs:
    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(RunConfig(command="weyl", n_max=500, d=2).to_text())
        cfg = parse_args(["weyl", "--config", str(path), "--N", "900"])
        assert cfg.n_max == 900
        assert cfg.d == 2

    def test_no_value_leaks_between_calls(self):
        # one argparse tree serves every call; each call parses into a new namespace
        first = parse_args(["weyl", "--d", "3", "--N", "500", "--family", "self_power"])
        assert (first.command, first.d, first.n_max, first.family) == ("weyl", 3, 500, "self_power")
        second = parse_args(["generate"])
        assert second == RunConfig(command="generate")
        assert first.d == 3

    def test_save_config(self, tmp_path):
        out = tmp_path / "saved.cfg"
        cfg = parse_args(["gamma", "--count", "9", "--save-config", str(out)])
        assert RunConfig.from_text(out.read_text()) == cfg

    @pytest.mark.parametrize(
        "argv_tail, text",
        [
            (["--config", "{dir}/bad.cfg"], "n_max=abc\n"),
            (["--config", "{dir}/bad.cfg"], "no_such_key=1\n"),
            (["--save-config", "{dir}/saved.cfg", "--output", "a=b.json"], None),
        ],
        ids=["bad_value", "unknown_key", "unserializable_save"],
    )
    def test_config_errors_exit_one(self, capsys, tmp_path, argv_tail, text):
        if text is not None:
            (tmp_path / "bad.cfg").write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["weyl"] + [a.format(dir=tmp_path) for a in argv_tail])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "saved.cfg").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1.5", "0", "-1"])
    def test_flag_threshold_outside_unit_interval_exits_one(self, capsys, tmp_path, value, via):
        # |W_N| <= 1, so a threshold above 1 (or nan) could never flag: a vacuous pass
        argv = ["weyl", "--family", "factorial", "--d", "2", "--N", "300",
                "--output", str(tmp_path / "w.json")]
        if via == "flag":
            argv += ["--flag-threshold", value]
        else:
            (tmp_path / "t.cfg").write_text(f"flag_threshold={value}\n")
            argv += ["--config", str(tmp_path / "t.cfg")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "w.json").exists()

    def test_flag_threshold_one_is_accepted(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["weyl", "--family", "factorial", "--d", "2", "--N", "300",
                  "--flag-threshold", "1.0", "--output", str(tmp_path / "w.json")])
        assert exc.value.code == 0
        assert json.loads((tmp_path / "w.json").read_text())["flag_threshold"] == 1.0

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["weyl", "--no-such-flag"])
        assert exc.value.code == 1

    def test_main_propagates_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["degenerate", "--family", "weyl", "--p", "2"])
        assert exc.value.code == 0


class TestExitCodes:
    def test_invalid_config_is_one(self, capsys):
        code, _, err = run_cfg(capsys, command="weyl", d=0)
        assert code == 1
        assert "error:" in err

    def test_interleaved_shift_is_one(self, capsys):
        # interleaved_a reads no shift: a report claiming h = 3 would be false
        with pytest.raises(SystemExit) as exc:
            main(["weyl", "--construction", "interleaved_a", "--d", "2", "--h", "3",
                  "--m", "1,1", "--N", "50", "--seed-bits", "64"])
        assert exc.value.code == 1
        assert "interleaved_a" in capsys.readouterr().err

    def test_degenerate_weyl(self, capsys):
        code, out, _ = run_cfg(capsys, command="degenerate", family="weyl", power=3)
        assert code == 0
        assert out.strip() == "(1,-3,3,-1)"

    def test_degenerate_multiplicative(self, capsys):
        code, out, _ = run_cfg(capsys, command="degenerate", family="multiplicative")
        assert code == 0
        assert out.strip() == "(2,-1)"

    def test_degenerate_needs_certified_family(self, capsys):
        code, _, err = run_cfg(capsys, command="degenerate", family="factorial")
        assert code == 1
        assert "error:" in err

    def test_weyl_refutation_is_two(self, capsys):
        code, out, _ = run_cfg(
            capsys,
            command="weyl",
            family="multiplicative",
            base=2,
            d=2,
            m_components="2,-1",
            m_radius=2,
            n_max=500,
        )
        assert code == 2
        assert "refuted" in out

    def test_weyl_pass_is_zero(self, capsys):
        code, out, _ = run_cfg(
            capsys, command="weyl", family="factorial", d=1, m_radius=1, n_max=300
        )
        assert code == 0
        assert "pass" in out

    def test_covariance_degenerate_fails(self, capsys):
        code, out, _ = run_cfg(
            capsys,
            command="covariance",
            family="multiplicative",
            base=2,
            d=2,
            m_components="2,-1",
            n_max=1000,
        )
        assert code == 2
        assert "fail" in out

    def test_covariance_factorial_passes(self, capsys):
        code, out, _ = run_cfg(
            capsys, command="covariance", family="factorial", d=1, n_max=1000
        )
        assert code == 0
        assert "pass" in out

    @pytest.mark.parametrize("seed_flags", [["--n-seeds", "1"], ["--seed-bits", "2"]],
                             ids=["one-seed", "seed-bits"])
    @pytest.mark.parametrize(
        "argv",
        [["covariance", "--family", "factorial", "--m", "1"],
         ["wcud", "--family", "multiplicative", "--M", "2", "--d", "2", "--m", "2,-1"]],
        ids=["exact-covariance", "zero-frequency-wcud"],
    )
    def test_seed_flags_checked_without_a_draw(self, capsys, argv, seed_flags):
        # neither statistic draws a seed; both check the seed flags as a draw would
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--N", "1000", *seed_flags])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_wcud_refuted_is_two(self, capsys):
        code, out, _ = run_cfg(
            capsys,
            command="wcud",
            family="multiplicative",
            base=2,
            d=2,
            m_components="2,-1",
            n_max=300,
            n_seeds=4,
        )
        assert code == 2
        assert "refuted" in out

    def test_m_arity_error_is_one(self, capsys):
        code, _, err = run_cfg(
            capsys, command="wcud", d=2, m_components="1", n_max=100, n_seeds=4
        )
        assert code == 1
        assert "error:" in err


class TestGamma:
    def test_prints_index_table(self, capsys):
        code, out, _ = run_cfg(capsys, command="gamma", count=4, bits=1)
        assert code == 0
        assert out.splitlines() == ["1", "2", "4", "7"]

    def test_report_includes_uniforms(self, capsys, tmp_path):
        path = tmp_path / "gamma.json"
        code, _, _ = run_cfg(
            capsys, command="gamma", count=8, bits=16, output_path=str(path)
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert len(report["uniforms"]) == 8
        assert all(0 <= u < 1 for u in report["uniforms"])
        assert report["version"]
        assert report["config"]["count"] == 8


    def test_refuses_seed_shorter_than_its_bit_demand(self, capsys):
        # 1024 uniforms of 32 bits read 556,017 source bits; an 8-bit prime
        # q repeats its expansion within q - 1 digits
        code, _, err = run_cfg(capsys, command="gamma", count=1024, bits=32, seed_bits=8)
        assert code == 1
        assert err.startswith("error:")
        code, _, _ = run_cfg(capsys, command="gamma", count=1024, bits=32)
        assert code == 0


    def test_refuses_source_whose_period_is_within_its_bit_demand(self, capsys):
        # 556,017 bits of p/633257 (20-bit seed at master seed 3): q exceeds the
        # demand, but ord_q(2) = 158,314 does not, so the bits would repeat
        code, _, err = run_cfg(capsys, command="gamma", count=1024, bits=32,
                               seed_bits=20, master_rng_seed=3)
        assert code == 1
        assert err.startswith("error:") and "158314" in err

    def test_default_seed_report_unchanged(self, capsys, tmp_path):
        path = tmp_path / "gamma.json"
        code, _, _ = run_cfg(capsys, command="gamma", count=1024, bits=32, output_path=str(path))
        assert code == 0
        source = default_bit_source(RunConfig().master_rng_seed, RunConfig().seed_bits)
        want = GammaStream(source, 32).uniforms(1024)
        assert json.loads(path.read_text())["uniforms"] == [float(u) for u in want]


# each family the CLI names, built directly from the parameters `generate` is given below
DIRECT_SPECS = {
    "weyl_power": GeneratorSpec.weyl(3),
    "multiplicative": GeneratorSpec.multiplicative(5),
    "factorial": GeneratorSpec.factorial(),
    "self_power": GeneratorSpec.self_power(),
    "linear_integer": GeneratorSpec.linear(ArithmeticIndices(4, 3)),
    "koksma": GeneratorSpec.koksma(Fraction(5, 2)),
}


class TestReports:
    @pytest.mark.parametrize("family", FAMILY_ALIASES)
    def test_generate_reads_the_named_family(self, tmp_path, family):
        kwargs = dict(power=3, base=5, coeff_start=4, coeff_stride=3, koksma_hi="5/2")
        cfg = RunConfig(command="generate", family=family, n_max=40, master_rng_seed=7,
                        seed_bits=64, output_path=str(tmp_path / "g.json"), **kwargs)
        spec = DIRECT_SPECS[FAMILY_ALIASES[family]]
        assert cfg.spec() == spec
        assert run(cfg) == 0
        report = json.loads((tmp_path / "g.json").read_text())
        (seed,) = _draw_seeds(spec.seed_interval(), 1, 7, 64)
        assert report["seed"] == str(seed)
        assert report["values"] == _scalars_at(spec, seed, range(1, 41)).tolist()

    def test_output_dir_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EQUIDIST_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cfg(capsys, command="gamma", count=2, bits=4)
        assert code == 0
        assert (tmp_path / "gamma_report.json").exists()

    def test_json_reports_are_byte_identical(self, capsys, tmp_path):
        kwargs = dict(
            command="wcud", family="factorial", d=1, n_max=200, n_seeds=4
        )
        # same basename twice: the config block embeds the output path
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a, b = tmp_path / "a" / "r.json", tmp_path / "b" / "r.json"
        assert run_cfg(capsys, output_path=str(a), **kwargs)[0] == 0
        assert run_cfg(capsys, output_path=str(b), **kwargs)[0] == 0
        assert json.loads(a.read_text()) != {}
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra.pop("config").pop("output_path") != rb.pop("config").pop(
            "output_path"
        )
        assert ra == rb
        # and with the path stripped the bytes agree except for that field
        assert a.read_bytes().replace(b"/a/", b"/b/") == b.read_bytes()

    def test_worker_count_invisible_in_payload(self, capsys, tmp_path):
        inputs = [
            dict(family="factorial", d=1),
            # zero-frequency m: exact rows, no seed drawn at either count
            dict(family="multiplicative", base=2, d=2, m_components="2,-1"),
        ]
        for case, family_kwargs in enumerate(inputs):
            kwargs = dict(command="wcud", n_max=200, n_seeds=4, **family_kwargs)
            a, b = tmp_path / f"w1_{case}.json", tmp_path / f"w2_{case}.json"
            run_cfg(capsys, output_path=str(a), workers=1, **kwargs)
            run_cfg(capsys, output_path=str(b), workers=2, **kwargs)
            ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
            assert ra.pop("config")["workers"] == 1
            assert rb.pop("config")["workers"] == 2
            assert ra == rb

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(command="discrepancy", family="factorial", n_max=300, n_seeds=4),
            dict(command="covariance", family="koksma", n_max=256, n_seeds=4, seed_bits=64),
            dict(command="wcud", family="factorial", n_max=200, n_seeds=4),
        ],
        ids=["discrepancy", "covariance", "wcud"],
    )
    def test_workers_start_no_process(self, capsys, tmp_path, monkeypatch, kwargs):
        # every command runs serially in this process; --workers is only recorded
        def refuse(self):
            raise RuntimeError("a process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        codes, reports = [], []
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.json"
            codes.append(run_cfg(capsys, output_path=str(path), workers=workers, **kwargs)[0])
            report = json.loads(path.read_text())
            assert report["config"].pop("workers") == workers
            report["config"].pop("output_path")
            reports.append(report)
        assert codes[0] == codes[1] != 1
        assert reports[0] == reports[1]

    def test_covariance_report_blocks(self, capsys, tmp_path):
        path = tmp_path / "cov.json"
        code, _, _ = run_cfg(
            capsys, command="covariance", family="factorial", d=1, n_max=1000,
            n_seeds=8, output_path=str(path),
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert set(report["c_of_m"]) == {f.name for f in fields(LagScan)} == {
            "c", "conclusive", "zero_pairs", "max_lag", "probe"
        }
        assert set(report["far_pairs"]) == {
            f.name for f in fields(FarPairCheck) if f.name != "verdict"
        } == {
            "n", "pairs", "estimates", "stderrs", "empirical_max", "c_hat",
            "implied_budget", "exact",
        }
        assert report["verdict"] == "pass"

    def test_discrepancy_csv(self, capsys, tmp_path):
        path = tmp_path / "trend.csv"
        code, _, _ = run_cfg(
            capsys,
            command="discrepancy",
            family="factorial",
            n_max=100,
            n_seeds=4,
            output_path=str(path),
            output_format="csv",
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "N,median,q10,q90"
        assert lines[1].startswith("26,")

    def test_discrepancy_single_seed_is_zero(self, capsys):
        code, out, _ = run_cfg(
            capsys, command="discrepancy", family="factorial", n_max=100, n_seeds=1
        )
        assert code == 0
        assert "over 1 seeds" in out

    @pytest.mark.parametrize(
        "command, extra, count",
        [
            ("generate", {}, 1),
            ("weyl", {}, 1),
            ("weyl", {"construction": "interleaved_a", "m_components": "1,1"}, 2),
        ],
    )
    def test_reported_seeds_are_the_sampler_sequence(
        self, capsys, tmp_path, command, extra, count
    ):
        from equidist.arithmetic import SeedSampler

        path = tmp_path / "report.json"
        run_cfg(
            capsys,
            command=command,
            family="factorial",
            d=count,
            n_max=50,
            m_radius=1,
            master_rng_seed=5,
            seed_bits=64,
            output_path=str(path),
            **extra,
        )
        sampler = SeedSampler(5, 64)
        want = [str(sampler.sample()) for _ in range(count)]
        got = json.loads(path.read_text())["seed"]
        assert (got if isinstance(got, list) else [got]) == want

    def test_discrepancy_rejects_multidim(self, capsys):
        code, _, err = run_cfg(
            capsys, command="discrepancy", d=2, m_components="1,1", n_seeds=4
        )
        assert code == 1
        assert "1-D" in err

    def test_generate_exact_csv(self, capsys, tmp_path):
        path = tmp_path / "stream.csv"
        code, out, _ = run_cfg(
            capsys,
            command="generate",
            family="factorial",
            n_max=5,
            output_path=str(path),
            output_format="csv",
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "k,residue,denominator"
        assert len(lines) == 6

    def test_generate_float_csv_for_koksma(self, capsys, tmp_path):
        path = tmp_path / "stream.csv"
        code, _, _ = run_cfg(
            capsys,
            command="generate",
            family="koksma",
            n_max=5,
            output_path=str(path),
            output_format="csv",
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == "k,value"

    def test_generate_stdout_rows(self, capsys):
        code, out, _ = run_cfg(capsys, command="generate", family="factorial", n_max=3)
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 3
        assert rows[0].startswith("1,")

    def test_csv_without_tabular_payload_errors(self, capsys, tmp_path):
        code, _, err = run_cfg(
            capsys,
            command="covariance",
            family="factorial",
            n_max=1000,
            output_path=str(tmp_path / "cov.csv"),
            output_format="csv",
        )
        assert code == 1
        assert "tabular" in err


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "equidist.cli", "gamma", "--count", "4", "--bits", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["1", "2", "4", "7"]

    def test_missing_subcommand_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "equidist.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 1
