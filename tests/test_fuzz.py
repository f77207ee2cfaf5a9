"""Fuzzed input surfaces: Matrix Market bytes, config files and solver lists.

The loader cases run in one child interpreter under an address-space limit,
so a crash or a runaway allocation fails the test instead of pytest.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from splitmerge.bench import _CONFIG_KEYS, load_config, parse_solver_list
from splitmerge.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
LOADER_CASES = 400
CHILD_ADDRESS_SPACE = 2 << 30

# valid inputs the loader cases mutate: coordinate symmetric, coordinate general, array
SEEDS = (
    b"%%MatrixMarket matrix coordinate real symmetric\n% a comment\n3 3 4\n"
    b"1 1 2.0\n2 1 -0.5\n2 2 3.0\n3 3 1.5\n",
    b"%%MatrixMarket matrix coordinate real general\n3 3 5\n"
    b"1 1 4.0\n1 2 1.0\n2 1 1.0\n2 2 2.5\n3 3 1e-3\n",
    b"%%MatrixMarket matrix array real general\n2 2\n2.0\n-1.0\n-1.0\n5.0\n",
)

# argv: the library's src directory, the case count. Every case is made from
# a seeded generator here, loaded, and checked; one JSON line reports them.
_LOADER_FUZZ = r"""
import json, random, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
from splitmerge.errors import SplitMergeError
from splitmerge.linop import load_matrix_market

SEEDS = %(seeds)r
TOKENS = [b"0", b"-1", b"1", b"2", b"3", b"4", b"99999999999", b"1e308", b"1e400", b"-1e400",
          b"nan", b"inf", b"-inf", b"1.0x", b"1.e", b"1e", b"0x1p3", b"", b" ", b"\t",
          b"1 1", b"%%", b"\r\n", b"\x00", b"\xff"]
BYTES = b"0123456789-+.eExn \t\n%%"

def mutate(data: bytes, rng: random.Random) -> bytes:
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        # the banner is line 0; the size line and the entries get most edits
        i = 0 if rng.random() < 0.1 else rng.randrange(1, len(lines))
        line = bytearray(lines[i])
        kind = rng.randrange(6)
        if kind == 0 and line:       # replace a byte
            line[rng.randrange(len(line))] = rng.choice(BYTES)
        elif kind == 1 and line:     # delete a byte
            del line[rng.randrange(len(line))]
        elif kind == 2:              # insert a byte
            line.insert(rng.randrange(len(line) + 1), rng.choice(BYTES))
        elif kind == 3:              # replace a field with a boundary token
            fields = bytes(line).split(b" ")
            fields[rng.randrange(len(fields))] = rng.choice(TOKENS)
            line = bytearray(b" ".join(fields))
        elif kind == 4:              # duplicate or drop a line
            if rng.random() < 0.5:
                lines.insert(i, bytes(line))
            elif len(lines) > 1:
                del lines[i]
                continue
        lines[i] = bytes(line)
    out = b"\n".join(lines)
    return out.rstrip(b"\n") if rng.random() < 0.3 else out    # often no final newline

rng = random.Random(20261019)
tally = {"loaded": 0, "refused": 0}
bad = []
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "case.mtx"
    for case in range(int(sys.argv[2])):
        data = mutate(SEEDS[case %% len(SEEDS)], rng)
        path.write_bytes(data)
        try:
            op = load_matrix_market(path)
        except SplitMergeError:
            tally["refused"] += 1
            continue
        except Exception as exc:
            bad.append([data.decode("latin-1"), f"{type(exc).__name__}: {exc}"])
            continue
        dense = op.to_dense()
        if not (np.isfinite(dense).all() and np.array_equal(dense, dense.T)):
            bad.append([data.decode("latin-1"), "not a finite symmetric operator"])
        tally["loaded"] += 1
print(json.dumps({**tally, "bad": bad}))
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def test_loader_refuses_or_loads_every_mutated_file():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _LOADER_FUZZ % {"seeds": SEEDS}, str(ROOT / "src"),
         str(LOADER_CASES)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_address_space,
    )
    assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["bad"] == []
    assert result["loaded"] + result["refused"] == LOADER_CASES
    assert result["loaded"] > 0 and result["refused"] > 0    # the cases reach both outcomes


_ASCII = st.characters(min_codepoint=0, max_codepoint=127)
_TOKEN = st.sampled_from([
    "", "0", "1", "2", "-1", "2.5", "1e-3", "1e400", "-0", "nan", "inf", "-inf", "auto",
    "1e-300", "99999999999999999999", "power", "split_merge", "gd_difference",
    "power_momentum", "synthetic", "matrix_market", "oracle", "residual",
    "fixed_one_with_safeguard", "convergence_guaranteed", "alpha", "beta", "rho_policy", "=",
    "(", ")", ",", "#",
])
_VALUE = st.one_of(_TOKEN, st.text(_ASCII, max_size=12),
                   st.lists(_TOKEN, max_size=6).map("".join))
_LINE = st.one_of(
    st.tuples(st.sampled_from(sorted(_CONFIG_KEYS)), _VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(_ASCII, max_size=30),
)


@settings(derandomize=True, max_examples=300, database=None)
@given(lines=st.lists(_LINE, max_size=8))
def test_config_text_raises_only_config_errors(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.cfg"
        path.write_text("\n".join(lines), encoding="ascii", newline="")
        try:
            load_config(path).validate()
        except ConfigError:
            pass


@settings(derandomize=True, max_examples=300, database=None)
@given(text=st.one_of(st.text(_ASCII, max_size=40), st.lists(_TOKEN, max_size=10).map("".join)))
def test_solver_list_raises_only_config_errors(text):
    try:
        parse_solver_list(text)
    except ConfigError:
        pass
