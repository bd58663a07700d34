"""The paper's headline, read from the committed evidence: both conjectures
hold at every size of the published schedule up to N=20160.

`evidence/paper_schedule.py` solved the README's `--segment` schedule (every
N to 2240, then strides of 320 and 1600) and checked each certificate file
as `pepcert verify --oracle` does; this script renders its summary,
`evidence/paper_schedule.csv`, without running the solver. Conjecture 1 (the
balancing stepsize is the minimax one) is the envelope column: the lower
bound's minimum over stepsizes is r(N), at alpha(N). Conjecture 2 (a
low-rank certificate proves that rate) is every other column: a positive
(a, b, c, d) whose residuals vanish, whose aggregate matches the target
coefficient by coefficient, and whose slack is a rank-one square.
"""

import csv
import pathlib

import numpy as np

from pepcert.rates import BALANCE_TOL
from pepcert.recursion import DELTA_TOL
from pepcert.solver import RESIDUAL_TOL

path = pathlib.Path(__file__).resolve().parent.parent / "evidence" / "paper_schedule.csv"
with open(path) as fh:
    header = [line[2:].rstrip() for line in fh if line.startswith("# ")]
    fh.seek(0)
    rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
cols = {name: np.array([row[name] for row in rows]) for name in rows[0]}
num = {name: values.astype(float) for name, values in cols.items() if name != "slack"}
ns = num["N"].astype(int)

print(f"{path.name}: {header[-1]}\n")
print(f"{'N':>6} {'alpha':>18} {'r':>11} {'sup|eps|':>9} {'delta':>9} "
      f"{'min a/max a':>11} {'min d/max d':>11} {'steps':>5} {'oracle':>9}")
for n in (3, 10, 100, 1000, 2240, 2560, 8960, 20160):
    i = int(np.searchsorted(ns, n))
    steps = f"{int(num['factored'][i])}+{int(num['chord'][i])}"
    print(f"{n:>6} {num['alpha'][i]:>18.15f} {num['r'][i]:>11.4e} {num['sup_eps'][i]:>9.2e} "
          f"{num['delta'][i]:>9.2e} {num['a_min'][i] / num['a_max'][i]:>11.2e} "
          f"{num['d_min'][i] / num['d_max'][i]:>11.2e} {steps:>5} {num['oracle_ratio'][i]:>9.2e}")

gates = {
    f"sup|eps| <= {RESIDUAL_TOL:.0e}": num["sup_eps"] <= RESIDUAL_TOL,
    f"delta <= {DELTA_TOL:.0e}": num["delta"] <= DELTA_TOL,
    "a, b, c, d positive": np.all([num[f"{v}_min"] > 0 for v in "abcd"], axis=0),
    "oracle within its tolerance": num["oracle_ratio"] <= 1.0,
    "slack a rank-one square": cols["slack"] == "True",
    f"envelope minimum r(N), to {BALANCE_TOL:.0e}": np.abs(num["envelope_gap"]) <= BALANCE_TOL,
}
print(f"\n{len(rows)} sizes, N = {ns[0]}..{ns[-1]}; sizes passing each check:")
for name, ok in gates.items():
    print(f"  {name:<40} {int(np.sum(ok)):>5}")
print(f"\nworst sup|eps| {num['sup_eps'].max():.2e}, worst delta {num['delta'].max():.2e}, "
      f"worst oracle deviation {num['oracle_ratio'].max():.2e} of its tolerance")
for v in "abcd":
    print(f"  smallest entry of {v} over its largest, at worst: "
          f"{np.min(num[f'{v}_min'] / num[f'{v}_max']):.2e}")
print(f"solver steps: {int(num['factored'].sum())} factored, {int(num['chord'].sum())} chord; "
      f"{num['solve_s'].sum():.1f} s to solve, {num['check_s'].sum():.1f} s to check")
print("every size passes every check" if all(ok.all() for ok in gates.values())
      else "SOME SIZE FAILS A CHECK")
