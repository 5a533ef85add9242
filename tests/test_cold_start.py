"""Cold start: importing the package loads neither scipy nor mpmath, the
first rational gamma calls give the bits of the package's Euler gamma called
directly, a case-I run never loads scipy, the first call that needs mpmath
gives the bits of a direct call, and a float run never loads mpmath."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

import vandiejen
from vandiejen.gamma import _euler_gamma, _euler_gamma_array

SRC = Path(vandiejen.__file__).resolve().parents[1]
ALPHA = 0.8
Z = 0.37 + 0.11j
XS = [0.37 + 0.11j, -1.2 + 0.4j, 2.5 - 0.3j]
R = 1.1
DPS = 30

# Runs in a fresh interpreter: the modules loaded by the import, the first
# rational gammas (a scalar, then an array), the scipy modules loaded after a
# case-I run, then the first calls that need mpmath (s_eval_mp, then s at an
# mpmath argument).  Complex values are sent as float.hex pairs, mpmath
# values as their exact mantissa-exponent tuples.
SCRIPT = """
import json, sys
import vandiejen, vandiejen.cli
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "mpmath"))
import numpy as np
from vandiejen.gamma import gamma_G
from vandiejen.sfun import CaseKind, CaseParams, s_eval, s_eval_mp
alpha, z, xs, r, dps = {args}
rational = CaseParams(CaseKind.RATIONAL, r=1.0, a=2.0)
trig = CaseParams(CaseKind.TRIGONOMETRIC, r=r, a=2.0)
def bits(w):
    return [complex(w).real.hex(), complex(w).imag.hex()]
out = {{"loaded": loaded}}
out["gamma-scalar"] = bits(gamma_G(rational, alpha, z))
out["gamma-array"] = [bits(w) for w in gamma_G(rational, alpha, np.array(xs))]
from vandiejen.verify import IDENTITIES, run_suite
assert run_suite(IDENTITIES, ["I"], samples=2, seed=0)
out["scipy-after-case-I"] = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
out["s_eval_mp"] = str(s_eval_mp(trig, z, dps)._mpc_)
import mpmath
with mpmath.workdps(dps):
    out["mpmath-argument"] = str(s_eval(trig, mpmath.mpmathify(z))._mpc_)
print(json.dumps(out))
"""


def _bits(w):
    return [complex(w).real.hex(), complex(w).imag.hex()]


# A float run over the other cases.
FLOAT_RUN = """
import sys
from vandiejen.verify import IDENTITIES, run_suite
reports = run_suite(IDENTITIES, ["II", "III", "IV"], samples=2, seed=0)
assert reports
print(sorted(m for m in sys.modules if m.partition(".")[0] == "mpmath"))
"""


def _run_fresh(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def test_import_loads_neither_dependency_and_first_calls_give_the_direct_bits():
    got = json.loads(_run_fresh(SCRIPT.format(args=repr((ALPHA, Z, XS, R, DPS)))))
    assert got.pop("loaded") == []

    # the same values from the package's Euler gamma and mpmath called directly
    alpha = complex(ALPHA)
    with mpmath.workdps(DPS):
        s_mp = mpmath.sin(R * mpmath.mpmathify(Z)) / R
    assert got == {
        "gamma-scalar": _bits(_euler_gamma(0.5 + Z / (1j * alpha))),
        "gamma-array": [_bits(w) for w in _euler_gamma_array(0.5 + np.array(XS) / (1j * alpha))],
        "scipy-after-case-I": [],
        "s_eval_mp": str(s_mp._mpc_),
        "mpmath-argument": str(s_mp._mpc_),
    }


def test_a_float_run_does_not_load_mpmath():
    assert _run_fresh(FLOAT_RUN).strip() == "[]"
