#!/usr/bin/env python3
"""A re-runnable mutant matrix for hoszp's exactness rules.

Each mutant in ``MUTANTS`` is a named set of exact ``(old, new)`` source
edits to one file under ``src/hoszp`` plus the test files that must fail
under it.  For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the edits there and
runs pytest on the listed files against that copy, stopping at the first
failing test.  The repository itself is never edited.

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named mutants
    python tools/mutants.py --list       # names and test files

A mutant is killed when a listed test fails (or cannot be collected), and
survives when all of them pass.  An equivalent mutant (one that changes
no result) is expected to survive and is reported as such.

Exit status: 0 when every non-equivalent mutant is killed, 1 when one
survives, 2 when an ``old`` string does not occur exactly once in its file
(the table no longer matches the source) or a name is unknown.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/hoszp
    tests: tuple[str, ...]  # relative to the repository root
    edits: tuple[tuple[str, str], ...]
    equivalent: bool = False


def _m(name, file, tests, *edits, equivalent=False):
    return Mutant(name, file, tuple(tests), tuple(edits), equivalent)


CODEC, OPS = "codec.py", "ops.py"
T_CODEC, T_OPS, T_DISTSIM = "tests/test_codec.py", "tests/test_ops.py", "tests/test_distsim.py"
T_CLI = "tests/test_cli.py"

MUTANTS = [
    # the checked prefix sums of codec._resolve_range
    _m("headroom up/down swapped", CODEC, [T_CODEC, T_OPS],
       ("np.where(down, _I64_MAX + prev, _I64_MAX - prev)",
        "np.where(down, _I64_MAX - prev, _I64_MAX + prev)")),
    _m("headroom admits -2^63", CODEC, [T_CODEC, T_OPS],
       ("np.where(down, _I64_MAX + prev,", "np.where(down, _I64_MAX + 1 + prev,")),
    _m("headroom check skipped", CODEC, [T_CODEC, T_OPS],
       ("check = bins and _bin_bound(outliers, k, w) > _I64_MAX", "check = False")),
    # the limb sum of ops.sum_streams
    _m("limb carry dropped", OPS, [T_OPS, T_DISTSIM],
       ("    hi += lo >> 32\n", "")),
    _m("limb sum admits -2^63", OPS, [T_OPS, T_DISTSIM],
       (" or bins.min() == -(2**63)", "")),
    _m("limb bound 2^32", OPS, [T_OPS, T_DISTSIM],
       ("hi.min() < -(2**31) or hi.max() >= 2**31", "hi.min() < -(2**32) or hi.max() >= 2**32")),
    _m("limb path chosen by residual widths alone", OPS, [T_OPS, T_DISTSIM],
       ("_bin_bound(c.outliers[b0:b1], k, int(", "_bin_bound(c.outliers[b0:b1], 2, int(")),
    # the wide rule of codec._split_residuals
    _m("wide split via abs", CODEC, [T_CODEC],
       ("np.subtract(np.maximum(b1, b0), np.minimum(b1, b0), out=d[1:])",
        "np.abs(np.subtract(b1, b0, out=d[1:]), out=d[1:])")),
    _m("wide sign from the wrapped difference", CODEC, [T_CODEC],
       ("neg = np.concatenate(([False], b1 < b0))",
        "neg = np.concatenate(([False], b1 - b0 < 0))")),
    # a consistent pair: every sign bit written and read inverted, so the
    # codec round-trips; only the independent reference model can tell
    _m("codec sign flip", CODEC, [T_CODEC],
       ("np.subtract(b1, b0, out=d[1:])", "np.subtract(b0, b1, out=d[1:])"),
       ("([False], b1 < b0)", "([False], b1 > b0)"),
       ("    np.multiply(s, -2, out=s)  # branch-free",
        "    s ^= 1\n    np.multiply(s, -2, out=s)  # branch-free")),
    # the slot-major decode of codec._decode_compact
    _m("narrow gather masks w + 1 bits", CODEC, [T_CODEC],
       ("[(1 << w) - 1 for w in range(9)]", "[(1 << (w + 1)) - 1 for w in range(9)]")),
    _m("narrow gather steps 8 bytes per group", CODEC, [T_CODEC],
       ("np.arange(out.shape[0] // 8)[:, None] * wz", "np.arange(out.shape[0] // 8)[:, None] * 8")),
    _m("narrow gather without the 8 zero bytes", CODEC, [T_CODEC],
       ("    buf = np.zeros(p1 - p0 + 8, dtype=np.uint8)\n    buf[:-8] = section[p0:p1]\n",
        "    buf = section[p0:p1]\n")),
    _m("slot 0 not seeded with the outliers", CODEC, [T_CODEC, T_OPS],
       ("    r[0] = outliers\n", "")),
    _m("ragged block at the full block length", CODEC, [T_CODEC],
       ("yield nfull, nfull + 1, n % k,", "yield nfull, nfull + 1, k,")),
    _m("chunk unpacked into the leading columns", CODEC, [T_CODEC],
       ("        out[j::8, cols] = lane\n", "        out[j::8, : lane.shape[1]] = lane\n")),
    # the refusal of a grid step past the f64 range, codec._check_input
    _m("infinite grid step accepted", CODEC, [T_CODEC, T_CLI],
       ("if not math.isfinite(2.0 * params.eps):", "if False:")),
    # the one range walk, codec._lockstep
    _m("walk allocates for a constant-only range", CODEC, [T_OPS],
       ("if bufs[i] is None and (not compact or streams[i].widths[b0:b1].any()):",
        "if bufs[i] is None:")),
    _m("walk skips the params check", CODEC, [T_CODEC, T_OPS],
       ("    _check_params(streams)\n    bufs = [None] * len(streams)\n",
        "    bufs = [None] * len(streams)\n")),
    # the outlier terms of ops._sums and ops._pair_dot
    _m("k*O dropped from the constant blocks' sum", OPS, [T_OPS],
       ("s[i] += k * _exact_dot(oc, m) +", "s[i] += _exact_dot(oc, m) +")),
    _m("k*O dropped from mean", OPS, [T_OPS],
       ("s[i] += k * _exact_dot(o, m)\n", "s[i] += _exact_dot(o, m)\n")),
    _m("k*O^2 dropped from the squares", OPS, [T_OPS],
       ("sqq[i] += k * _exact_dot(oc, m, oc, m)", "sqq[i] += _exact_dot(oc, m, oc, m)")),
    _m("k*Oa*Ob dropped, general path", OPS, [T_OPS],
       ("return (k * _exact_dot(oa[both], ma, ob[both], mb)",
        "return (_exact_dot(oa[both], ma, ob[both], mb)")),
    _m("k*Oa*Ob dropped, aligned path", OPS, [T_OPS],
       ("return k * _exact_dot(oa[ca], ma, ob[ca], mb)", "return _exact_dot(oa[ca], ma, ob[ca], mb)")),
    _m("a's rows weighed by a's own outliers", OPS, [T_OPS],
       ("_block_dot(xa, ma, ta, ob[~ca & cb], mb)", "_block_dot(xa, ma, ta, oa[~ca & cb], mb)")),
    _m("b's rows weighed by b's own outliers", OPS, [T_OPS],
       ("_block_dot(xb, mb, tb, oa[~cb & ca], ma)", "_block_dot(xb, mb, tb, ob[~cb & ca], ma)")),
    _m("block sums past int64 dotted as they wrap", OPS, [T_OPS],
       ("    if k * mx <= _I64_MAX:\n        return _exact_dot(x.sum(axis=0)",
        "    if True:\n        return _exact_dot(x.sum(axis=0)")),
    _m("aligned path when only the constant counts agree", OPS, [T_OPS],
       ("if np.array_equal(ca, cb):", "if ca.sum() == cb.sum():")),
    _m("mean weights k - 1 - i", OPS, [T_OPS],
       ("weights = np.arange(k, 0, -1)", "weights = np.arange(k - 1, -1, -1)")),
    _m("mean weights i + 1", OPS, [T_OPS],
       ("weights = np.arange(k, 0, -1)", "weights = np.arange(1, k + 1)")),
    # residual-depth decode already zeroes the block-start slot
    _m("block-start weight kept", OPS, [T_OPS],
       ("    weights[0] = 0\n", ""), equivalent=True),
    # the halves of ops._exact_dot
    _m("low half dropped", OPS, [T_OPS],
       ("            + _exact_dot(x & ((1 << s) - 1), (1 << s) - 1, y, my))", "            + 0)")),
    _m("high half shifted by s - 1", OPS, [T_OPS],
       ("y, my) << s)", "y, my) << (s - 1))")),
    _m("high half bound without + 1", OPS, [T_OPS],
       ("_exact_dot(x >> s, (mx >> s) + 1,", "_exact_dot(x >> s, mx >> s,")),
    # the one finish of a second moment
    _m("moment multiplies before it divides", OPS, [T_OPS],
       ("e2 * e2 * (float(num) / (n * n))", "e2 * e2 * float(num) / (n * n)")),
    # a range constant in every operand, finished by codec._encode_ranges
    # from the operation's bin rule on the outliers
    _m("constant-range shortcut when any operand is constant", CODEC, [T_OPS],
       ("if streams and not any(c.widths[b0:b1].any() for c in streams):",
        "if streams and any(not c.widths[b0:b1].any() for c in streams):")),
    _m("encoder decodes constant ranges", CODEC, [T_OPS],
       ("if streams and not any(c.widths[b0:b1].any() for c in streams):", "if False:")),
    _m("constant rule on the first operand's outliers only", CODEC, [T_OPS],
       ("rule([c.outliers[b0:b1].astype(np.int64) for c in streams])",
        "rule([streams[0].outliers[b0:b1].astype(np.int64)] * len(streams))")),
    _m("constant-range sum without the signs", OPS, [T_OPS],
       ("lambda xs: _limb_sum(xs, signs)", "lambda xs: _limb_sum(xs, [1] * len(xs))")),
    _m("residual sums aligned where the constant blocks differ", OPS, [T_OPS, T_CODEC],
       ("aligned = all(np.array_equal(live, c.widths[b0:b1] > 0) for c in streams[1:])",
        "aligned = True")),
    # the scalar dispatch of ops.OpSpec.apply
    _m("scalar passed whenever one is given", OPS, [T_OPS],
       ("if self.takes_scalar else self.fn(*streams)",
        "if scalar is not None else self.fn(*streams)")),
    # the 63-bit check of a scalar shift
    _m("scalar-shift check skipped", OPS, [T_OPS, T_CLI],
       ("if codec._bin_bound(2**31, c.params.block_len, c.width_max) > _I64_MAX:",
        "if False:")),
    # the agreement rule of ops.OpSpec.agrees
    _m("non-finite verify rule reverted", OPS, [T_OPS, T_CLI],
       ("if not (math.isfinite(got) and math.isfinite(want)):", "if False:")),
    _m("variance quantum taken as 2 eps / N", OPS, [T_CLI, T_OPS],
       ("_reduction_oracle(np.var), 2)", "_reduction_oracle(np.var), 1)")),
    _m("squared quantum by float power", OPS, [T_OPS, T_CLI],
       ("2: q * q}", "2: q ** 2}")),
]


def stale_edits(mutants) -> list[str]:
    """The edits whose ``old`` string does not occur exactly once."""
    out = []
    for m in mutants:
        source = (ROOT / "src" / "hoszp" / m.file).read_text()
        for old, _ in m.edits:
            if source.count(old) != 1:
                out.append(f"{m.name}: {old!r} occurs {source.count(old)} times in {m.file}")
    return out


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def run(m: Mutant, tree: Path) -> bool:
    """Apply ``m`` to the copy in ``tree``, run its tests, restore the file;
    True when a test failed."""
    path = tree / "src" / "hoszp" / m.file
    original = path.read_text()
    mutated = original
    for old, new in m.edits:
        mutated = mutated.replace(old, new)
    path.write_text(mutated)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *m.tests],
            cwd=tree, env=_env(tree), capture_output=True, text=True)
    finally:
        path.write_text(original)
    if proc.returncode not in (0, 1, 2):  # usage error or no tests: the table is wrong
        print(f"{m.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)
    return proc.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            print(f"{m.name}{' (equivalent)' if m.equivalent else ''}: {' '.join(m.tests)}")
        return 0
    stale = stale_edits(chosen)
    if stale:
        print("stale mutants:\n  " + "\n  ".join(stale), file=sys.stderr)
        return 2
    survivors = []
    t_all = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="hoszp-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        # an installed hoszp must not shadow the mutated copy
        where = subprocess.run([sys.executable, "-c", "import hoszp; print(hoszp.__file__)"],
                               cwd=tree, env=_env(tree), capture_output=True, text=True)
        if not where.stdout.strip().startswith(str(tree)):
            print(f"hoszp imports from {where.stdout.strip() or where.stderr}, not the copy",
                  file=sys.stderr)
            return 2
        for m in chosen:
            t0 = time.perf_counter()
            killed = run(m, tree)
            if m.equivalent:
                verdict = "killed (marked equivalent)" if killed else "survived (equivalent)"
            else:
                verdict = "killed" if killed else "SURVIVED"
                if not killed:
                    survivors.append(m.name)
            print(f"{verdict:27} {time.perf_counter() - t0:6.1f} s  {m.name}", flush=True)
    print(f"{len(chosen)} mutants, {len(survivors)} surviving, "
          f"{time.perf_counter() - t_all:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
