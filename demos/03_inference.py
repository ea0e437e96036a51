"""Distribution types: deciding independence without counting anything.

Each expression gets one of four labels. RUD means uniformly random for
every fixing of secrets and publics, SID means the distribution never
depends on the secrets, SDD means it provably does, and UKD means the
rules gave up. The judgement carries the rule trace that produced it.
"""

from maskcheck import (
    SDD,
    corpus_dir,
    dominant_vars,
    expr_of,
    infer,
    make_domain,
    parse,
    pretty,
)
from maskcheck.expr import binop, neg, var

d = make_domain(8)
k = var("k", "secret")
p = var("p", "public")
r0 = var("r0", "random")
r1 = var("r1", "random")

# The workhorse: a random that occurs once and is reachable from the
# root through bijective steps makes the expression uniform.
for e in (binop("^", k, r0),
          binop("&", binop("^", k, r0), r1),
          binop("&", k, r0),
          binop("&", k, p),
          binop("@", binop("^", k, r0), binop("^", k, r0))):
    j = infer(e, d)
    doms = sorted(dominant_vars(e, d))
    print(f"{pretty(e):28} {j.dist}  dominant={doms}  via {j.rule_trace}")

# On a whole program the rules run over each internal's closed form.
cube = parse((corpus_dir() / "cube.mv").read_text())
print(f"\n{cube.name}: per-variable judgements")
for name in cube.internals:
    j = infer(expr_of(cube, name), d)
    print(f"  {name:3} : {j.dist}  via {' -> '.join(j.rule_trace)}")

# UKD is honest ignorance. x2 = ((k^r0)@(k^r0))@r0 reuses r0, so no
# rule applies; counting (see 05) settles it either way.
x2 = expr_of(cube, "x2")
print(f"\nx2 = {pretty(x2)}")
print(f"rules alone say: {infer(x2, d).dist}")

# A store of already-settled expressions unblocks dead ends. k & p is
# UKD on its own; seed its true verdict and its complement types
# immediately, because complement is a bijection on values.
inner = binop("&", k, p)
outer = neg(inner)
print(f"\n{pretty(outer)} without store: {infer(outer, d).rule_trace}")
j = infer(outer, d, store={inner: SDD})
print(f"{pretty(outer)} with k & p settled as SDD: {j.dist} via {j.rule_trace}")
