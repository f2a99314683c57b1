"""Build two small hyperrings by hand and watch the validator work.

The addition tables are element -> set; a cell with two entries is what
makes these hyper and not plain rings.
"""

from krasner.core import HyperRing

# integers mod 6, written out the long way: every hypersum is a singleton
n = 6
z6 = HyperRing(
    add=[[[(a + b) % n] for b in range(n)] for a in range(n)],
    neg=[(-a) % n for a in range(n)],
    mul=[[a * b % n for b in range(n)] for a in range(n)],
    unit=1,
    name="z6",
)

report = z6.validate()
print(f"{z6.name}: ok={report.ok}")
for chk in report.hypergroup.checks + report.table.checks:
    print(f"  {chk.axiom:20s} {'ok' if chk.ok else 'FAIL'}")

# the two element hyperfield: 1 + 1 = {0, 1} is the whole point
k = HyperRing(
    add=[[[0], [1]], [[1], [0, 1]]],
    neg=[0, 1],
    mul=[[0, 0], [0, 1]],
    unit=1,
    name="k",
)
print(f"\n{k.name}: ok={k.validate().ok}")
print(f"  1 + 1 = {sorted(k.add(1, 1).members)}")
print(f"  every element is its own negative: neg(1) = {k.neg(1)}")

# now sabotage z6 and see the witness come back
broken_add = [[list(sorted(z6.add(a, b).members)) for b in range(n)] for a in range(n)]
broken_add[2][3] = [5, 1]  # 2 + 3 rewired, no longer associative
broken = HyperRing(broken_add, [(-a) % n for a in range(n)],
                   [[a * b % n for b in range(n)] for a in range(n)], name="broken")
report = broken.validate()
print(f"\n{broken.name}: ok={report.ok}")
for chk in report.failures:
    print(f"  {chk.axiom} fails at {chk.witness}: {chk.detail}")
