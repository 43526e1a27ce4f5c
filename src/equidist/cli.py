"""Batch command-line front end.

Exit codes are the scripting contract: 0 means no refutation was reached (a
passed or inconclusive check, or a generative command), 2 means a refutation
verdict was reached, and 1 means the run failed before producing a verdict.
Reports embed the resolved config, the tool version, and the checkpoint grid,
and identical config plus master rng seed produces a byte-identical JSON
report.  Every run is serial in one process; `--workers`, like `--H`, is
recorded in the report config and never read.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import __version__
from .arithmetic import DEFAULT_SEED_BITS, order_at_most
from .discrepancy import star_discrepancy_1d
from .errors import EquidistError
from .generators import (
    CONSTRUCTIONS,
    FAMILIES,
    ArithmeticIndices,
    GeneratorSpec,
    WindowConfig,
    _scalars_at,
    beta_stream,
    export_stream_csv,
)
from .stochastic import (
    GammaStream,
    _draw_seeds,
    c_of_m_scan,
    default_bit_source,
    gamma_index,
    lemma3_check,
    wcud_check,
)
from .weyl import (
    MultiIndex,
    checkpoint_grid,
    criterion_scan,
    degenerate_m_multiplicative,
    degenerate_m_weyl,
)

FAMILY_ALIASES = {
    **{family: family for family in FAMILIES},
    "weyl": "weyl_power",
    "self-power": "self_power",
    "linear": "linear_integer",
}


@dataclass
class RunConfig:
    """Flat, text-serializable description of one CLI run."""

    command: str = "weyl"
    family: str = "factorial"
    power: int = 1
    base: int = 2
    koksma_hi: str = "2"
    coeff_start: int = 1
    coeff_stride: int = 1
    d: int = 1
    h: int = 1
    o: int = 0
    construction: str = "sliding_bc"
    n_max: int = 10000
    m_radius: int = 2
    m_components: str = "1"
    big_h: int = 8
    n_seeds: int = 32
    seed_bits: int = DEFAULT_SEED_BITS
    master_rng_seed: int = 1
    count: int = 4
    bits: int = 32
    workers: int = 1
    flag_threshold: float = 0.9
    output_path: str = ""
    output_format: str = "json"

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.family not in FAMILY_ALIASES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.output_format!r}")
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}")
        positives = (
            "power",
            "base",
            "d",
            "h",
            "n_max",
            "m_radius",
            "big_h",
            "n_seeds",
            "seed_bits",
            "count",
            "bits",
        )
        for name in positives:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.o < 0:
            raise ValueError(f"o must be nonnegative, got {self.o}")
        if self.workers < 0:
            raise ValueError(f"workers must be nonnegative, got {self.workers}")
        if not 0 < self.flag_threshold <= 1:  # |W_N| <= 1: a larger one (or nan) never flags
            raise ValueError(f"flag_threshold must lie in (0, 1], got {self.flag_threshold}")
        if Fraction(self.koksma_hi) <= 1:
            raise ValueError(f"koksma_hi must exceed 1, got {self.koksma_hi}")
        for piece in self.m_components.split(","):
            int(piece)  # raises ValueError with the offending text

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and ("\n" in value or "=" in value):
                raise ValueError(f"{f.name} cannot be serialized: {value!r}")
            lines.append(f"{f.name}={value!r}" if isinstance(value, float) else f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        kinds = {f.name: f.type for f in fields(cls)}
        casts = {"int": int, "float": float, "str": str}
        values = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in kinds:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = casts[kinds[key]](val.strip())
        return cls(**values)

    def spec(self) -> GeneratorSpec:
        family = FAMILY_ALIASES[self.family]
        if family == "weyl_power":
            return GeneratorSpec.weyl(self.power)
        if family == "multiplicative":
            return GeneratorSpec.multiplicative(self.base)
        if family == "factorial":
            return GeneratorSpec.factorial()
        if family == "self_power":
            return GeneratorSpec.self_power()
        if family == "linear_integer":
            return GeneratorSpec.linear(
                ArithmeticIndices(self.coeff_start, self.coeff_stride)
            )
        return GeneratorSpec.koksma(Fraction(self.koksma_hi))

    def window(self) -> WindowConfig:
        return WindowConfig(d=self.d, h=self.h, o=self.o, construction=self.construction)

    def multi_index(self) -> MultiIndex:
        components = tuple(int(p) for p in self.m_components.split(","))
        if len(components) != self.d:
            raise ValueError(
                f"m has {len(components)} components but d={self.d}; pass --m with d entries"
            )
        return MultiIndex(components)


# -- report plumbing ---------------------------------------------------------


def _report_path(cfg: RunConfig) -> str:
    if cfg.output_path:
        return cfg.output_path
    env_dir = os.environ.get("EQUIDIST_OUTPUT_DIR", "")
    if env_dir:
        return os.path.join(env_dir, f"{cfg.command}_report.{cfg.output_format}")
    return ""


def _write_report(cfg: RunConfig, payload: dict, csv_rows=None, csv_header=None) -> str:
    path = _report_path(cfg)
    if not path:
        return ""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if cfg.output_format == "csv":
        if csv_rows is None:
            raise ValueError(f"{cfg.command} has no tabular export; use --format json")
        with open(path, "w") as fh:
            fh.write(",".join(csv_header) + "\n")
            for row in csv_rows:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        return path
    report = {
        "config": asdict(cfg),
        "version": __version__,
        "checkpoints": list(checkpoint_grid(cfg.n_max)),
    }
    report.update(payload)
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# -- commands ----------------------------------------------------------------


def _draw(cfg: RunConfig, spec: GeneratorSpec, count: int) -> tuple:
    return _draw_seeds(spec.seed_interval(), count, cfg.master_rng_seed, cfg.seed_bits)


def cmd_generate(cfg: RunConfig) -> str | None:
    spec = cfg.spec()
    (seed,) = _draw(cfg, spec, 1)
    path = _report_path(cfg)
    if path and cfg.output_format == "csv":
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        export_stream_csv(path, beta_stream(spec, seed, cfg.n_max))
        print(f"wrote {cfg.n_max} samples to {path}")
        return
    values = _scalars_at(spec, seed, range(1, cfg.n_max + 1)).tolist()
    payload = {
        "seed": str(seed),
        "values": values,
        "exact": spec.exact,
    }
    written = _write_report(cfg, payload)
    if written:
        print(f"wrote {cfg.n_max} samples to {written}")
    else:
        for k, v in enumerate(values, start=1):
            print(f"{k},{v!r}")


def cmd_weyl(cfg: RunConfig) -> str | None:
    spec = cfg.spec()
    interleaved = cfg.construction == "interleaved_a"
    if interleaved:
        seed = _draw(cfg, spec, cfg.d)
    else:
        (seed,) = _draw(cfg, spec, 1)
    scan = criterion_scan(spec, seed, cfg.window(), cfg.m_radius, cfg.n_max)
    flagged = scan.flagged(cfg.flag_threshold)
    verdict = "refuted" if flagged else "pass"
    series, rows = {}, []
    for m, ws in sorted(scan.series.items(), key=lambda kv: kv[0].components):
        cps, mags = list(ws.checkpoints), ws.magnitudes
        series[str(m.components)] = {"checkpoints": cps, "magnitudes": mags}
        rows += [(" ".join(map(str, m.components)), n, v) for n, v in zip(cps, mags)]
    payload = {
        "seed": [str(s) for s in seed] if interleaved else str(seed),
        "series": series,
        "worst_m": list(scan.worst_m.components),
        "worst_final_magnitude": scan.worst_final_magnitude,
        "flag_threshold": cfg.flag_threshold,
        "flagged": [list(m.components) for m in flagged],
        "verdict": verdict,
    }
    _write_report(cfg, payload, rows, ("m", "N", "magnitude"))
    for m in flagged:
        final = scan.series[m].final_magnitude
        print(f"flagged m={m} |W_N|={final:.6f}")
    print(f"weyl scan verdict: {verdict} (worst m={scan.worst_m}, |W_N|={scan.worst_final_magnitude:.6f})")
    return verdict


def _star_row(spec, cps, seed) -> list:
    values = _scalars_at(spec, seed, range(1, cps[-1] + 1))
    return [star_discrepancy_1d(values[:n]).value for n in cps]


def cmd_discrepancy(cfg: RunConfig) -> str | None:
    spec = cfg.spec()
    if cfg.d != 1:
        raise ValueError("the discrepancy trend command is 1-D; use the library for d > 1")
    cps = checkpoint_grid(cfg.n_max)
    seeds = _draw(cfg, spec, cfg.n_seeds)
    mat = np.array([_star_row(spec, cps, s) for s in seeds])  # (n_seeds, n_cps)
    med = np.median(mat, axis=0).tolist()
    q10 = np.quantile(mat, 0.1, axis=0).tolist()
    q90 = np.quantile(mat, 0.9, axis=0).tolist()
    payload = {
        "star_median": med,
        "star_q10": q10,
        "star_q90": q90,
        "final_fraction_below_005": float(np.mean(mat[:, -1] <= 0.05)),
    }
    rows = list(zip(cps, med, q10, q90))
    written = _write_report(cfg, payload, rows, ("N", "median", "q10", "q90"))
    print(
        f"D* trend over {cfg.n_seeds} seeds: final median {med[-1]:.5f}"
        + (f" (report: {written})" if written else "")
    )


def cmd_covariance(cfg: RunConfig) -> str | None:
    spec = cfg.spec()
    m = cfg.multi_index()
    payload = {}
    if spec.exact:
        scan = c_of_m_scan(spec, m)
        payload["c_of_m"] = asdict(scan)
    check = lemma3_check(
        spec,
        cfg.window(),
        m,
        cfg.n_max,
        n_seeds=cfg.n_seeds,
        master_seed=cfg.master_rng_seed,
        bit_width=cfg.seed_bits,
    )
    payload["far_pairs"] = asdict(check)
    payload["verdict"] = payload["far_pairs"].pop("verdict")
    _write_report(cfg, payload)
    print(
        f"far-pair covariance verdict: {check.verdict}"
        f" (max |cov| {check.empirical_max:.6f}, c_hat {check.c_hat:.6f})"
    )
    return check.verdict


def cmd_wcud(cfg: RunConfig) -> str | None:
    spec = cfg.spec()
    diag = wcud_check(
        spec,
        cfg.window(),
        cfg.multi_index(),
        cfg.n_max,
        n_seeds=cfg.n_seeds,
        master_seed=cfg.master_rng_seed,
        bit_width=cfg.seed_bits,
    )
    verdict = diag.verdicts["wcud"]
    payload = {
        "checkpoints_used": list(diag.checkpoints),
        "s_over_n": list(diag.s_over_n),
        "s_over_n_stderr": list(diag.s_over_n_stderr),
        "verdict": verdict,
        "details": diag.details,
    }
    rows = [
        (n, v, e)
        for n, v, e in zip(diag.checkpoints, diag.s_over_n, diag.s_over_n_stderr)
    ]
    _write_report(cfg, payload, rows, ("N", "mean_abs_s_over_n", "stderr"))
    print(f"wcud verdict: {verdict} (final E|S_N|/N = {diag.s_over_n[-1]:.6f})")
    return verdict


def cmd_degenerate(cfg: RunConfig) -> str | None:
    family = FAMILY_ALIASES[cfg.family]
    if family == "weyl_power":
        m = degenerate_m_weyl(cfg.power)
    elif family == "multiplicative":
        m = degenerate_m_multiplicative(cfg.base)
    else:
        raise ValueError("degenerate certificates exist for weyl and multiplicative families")
    payload = {"family": family, "m": list(m.components)}
    _write_report(cfg, payload)
    print(str(m))


def cmd_gamma(cfg: RunConfig) -> str | None:
    source = default_bit_source(cfg.master_rng_seed, cfg.seed_bits)
    needed, q = gamma_index(cfg.count, cfg.bits), source.seed.denominator
    period = order_at_most(2, q, needed)
    if period is not None:  # the binary expansion of p/q repeats with period ord_q(2)
        raise ValueError(f"{needed} source bits exceed the period {period} of the expansion "
                         f"of a {cfg.seed_bits}-bit seed; raise --seed-bits")
    gamma = GammaStream(source, cfg.bits)
    uniforms = gamma.uniforms(cfg.count)
    table = gamma.index_table(cfg.count)
    payload = {
        "indices": table,
        "uniforms": [float(u) for u in uniforms],
        "mean": float(np.mean(uniforms)) if cfg.count else 0.0,
    }
    _write_report(cfg, payload)
    for row in table:
        print(" ".join(str(v) for v in row))


_HANDLERS = {
    "generate": cmd_generate,
    "weyl": cmd_weyl,
    "discrepancy": cmd_discrepancy,
    "covariance": cmd_covariance,
    "wcud": cmd_wcud,
    "degenerate": cmd_degenerate,
    "gamma": cmd_gamma,
}
# in --help order
COMMANDS = tuple(_HANDLERS)


def run(cfg: RunConfig) -> int:
    """Validate and execute one run; returns the exit code of its verdict."""
    try:
        cfg.validate()
        verdict = _HANDLERS[cfg.command](cfg)
    except (EquidistError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if verdict in ("refuted", "fail") else 0


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for refutations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--save-config", help="write the resolved config to this path")
    p.add_argument("--family", help="generator family")
    p.add_argument("--p", dest="power", type=int, help="Weyl power exponent")
    p.add_argument("--M", dest="base", type=int, help="multiplicative base")
    p.add_argument("--hi", dest="koksma_hi", help="Koksma interval upper bound (fraction)")
    p.add_argument("--coeff-start", dest="coeff_start", type=int)
    p.add_argument("--coeff-stride", dest="coeff_stride", type=int)
    p.add_argument("--d", dest="d", type=int, help="window dimension")
    p.add_argument("--h", dest="h", type=int, help="window step")
    p.add_argument("--o", dest="o", type=int, help="window offset")
    p.add_argument("--construction", choices=CONSTRUCTIONS)
    p.add_argument("--N", dest="n_max", type=int, help="sequence length")
    p.add_argument("--m-radius", dest="m_radius", type=int)
    p.add_argument("--m", dest="m_components", help="comma-separated multi-index")
    p.add_argument("--H", dest="big_h", type=int, help="recorded in the report config, never read")
    p.add_argument("--n-seeds", dest="n_seeds", type=int)
    p.add_argument("--seed-bits", dest="seed_bits", type=int)
    p.add_argument("--master-seed", dest="master_rng_seed", type=int)
    p.add_argument("--count", dest="count", type=int, help="uniforms to emit")
    p.add_argument("--bits", dest="bits", type=int, help="bits per uniform")
    p.add_argument("--workers", dest="workers", type=int, help="recorded in the report config, never read")
    p.add_argument("--flag-threshold", dest="flag_threshold", type=float)
    p.add_argument("--output", dest="output_path", help="report path")
    p.add_argument("--format", dest="output_format", choices=("json", "csv"))


@functools.cache
def _parser() -> _Parser:
    """The argparse tree, built once per process: parsing never changes it, and each
    parse fills a new namespace whose unset flags are None."""
    parser = _Parser(prog="equidist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common(sub.add_parser(name, help=f"{name} command"))
    return parser


def parse_args(argv) -> RunConfig:
    ns = _parser().parse_args(argv)
    if ns.config:
        with open(ns.config) as fh:
            cfg = RunConfig.from_text(fh.read())
    else:
        cfg = RunConfig()
    cfg.command = ns.command
    for f in fields(RunConfig):
        value = getattr(ns, f.name, None)
        if value is not None and f.name != "command":
            setattr(cfg, f.name, value)
    if ns.save_config:
        text = cfg.to_text()
        with open(ns.save_config, "w") as fh:
            fh.write(text)
    return cfg


def main(argv=None) -> None:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    raise SystemExit(run(cfg))


if __name__ == "__main__":
    main()
