"""Seeded input generation for the four benchmark workloads.

Every workload is a list of items ``{"id", "op", "args"}`` built from plain
JSON data, so the program under test sees only generated inputs.  The same
(workload, seed) pair always gives the same list.  Where an input's cost
depends strongly on its shape, the seed varies the input without changing its
shape (a rotation, an adjoint swap, the order of the items) or draws inputs
until a fixed amount of work is reached, so that the batch time does not
depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("pairing-cold", "closed-forms", "mc-large", "mc-small")

# The ``hostspeed`` probe kind that gauges each workload: mc-large spends its
# time in BLAS kernels, whose speed does not follow the interpreter's.
GAUGES = {"pairing-cold": "python", "closed-forms": "python", "mc-large": "blas", "mc-small": "python"}

ONE, STAR = "1", "*"

# Work budget, in down-set DP steps (order ideals times vertices), for the
# seeded random pairings of 30-46 letters.  One draw may use at most an eighth
# of it; the widest trees are covered by the star family instead.
PAIRING_DP_BUDGET = 2_000_000
PAIRING_DP_ITEM_CAP = PAIRING_DP_BUDGET // 8


def swapped(eps: str) -> str:
    return eps.translate(str.maketrans({ONE: STAR, STAR: ONE}))


def rotated(eps: str, r: int) -> str:
    return eps[r:] + eps[:r]


# -- pairings and their folded trees (independent of the program) -----------


def random_pairing(rng: random.Random, m: int) -> tuple[list[tuple[int, int]], str]:
    """A uniform non-crossing pairing of 2m points with random compatible stars.

    A uniform Dyck path comes from the cycle lemma; each arc then gets a random
    orientation, which makes the star-word compatible with the pairing.
    """
    steps = [1] * m + [-1] * (m + 1)
    rng.shuffle(steps)
    height, low, cut = 0, 0, 0
    for i, s in enumerate(steps):
        height += s
        if height < low:
            low, cut = height, i + 1
    steps = (steps[cut:] + steps[:cut])[:-1]
    open_, pairs = [], []
    for pos, s in enumerate(steps, 1):
        if s == 1:
            open_.append(pos)
        else:
            pairs.append((open_.pop(), pos))
    eps = [""] * (2 * m)
    for i, j in pairs:
        eps[i - 1] = rng.choice((ONE, STAR))
        eps[j - 1] = swapped(eps[i - 1])
    return sorted(pairs), "".join(eps)


def folded_tree(pairs, eps: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and cover pairs (a below b) of the folded polygon."""
    k = len(eps)
    parent = list(range(k + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def nxt(j):
        return j % k + 1

    for i, j in pairs:
        parent[find(i)] = find(nxt(j))
        parent[find(nxt(i))] = find(j)
    label = {}
    for corner in range(1, k + 1):
        label.setdefault(find(corner), len(label))
    covers = []
    for i, _ in pairs:
        a, b = label[find(i)], label[find(nxt(i))]
        # a ONE letter points from corner i+1 to corner i: corner i is below
        covers.append((a, b) if eps[i - 1] == ONE else (b, a))
    return len(label), covers


def count_order_ideals(n: int, covers) -> int:
    """Down-sets of a tree-shaped order, by a two-state DP over the tree."""
    adj = [[] for _ in range(n)]
    for a, b in covers:
        adj[a].append((b, "above"))
        adj[b].append((a, "below"))
    order, seen, parent_of = [0], {0}, {0: None}
    for v in order:
        for w, _ in adj[v]:
            if w not in seen:
                seen.add(w)
                parent_of[w] = v
                order.append(w)
    out_in = {}
    for v in reversed(order):
        out_, in_ = 1, 1
        for w, rel in adj[v]:
            if parent_of.get(w) != v:
                continue
            w_out, w_in = out_in[w]
            if rel == "below":  # w below v: v in forces w in
                out_ *= w_out + w_in
                in_ *= w_in
            else:  # w above v: w in forces v in
                out_ *= w_out
                in_ *= w_out + w_in
        out_in[v] = (out_, in_)
    return sum(out_in[0])


# -- the workloads ------------------------------------------------------------


def _necklaces(length: int) -> list[str]:
    """Least rotation of every balanced star-word of the given even length."""
    seen = set()
    for stars in itertools.combinations(range(length), length // 2):
        w = "".join(STAR if i in stars else ONE for i in range(length))
        seen.add(min(rotated(w, r) for r in range(length)))
    return sorted(seen)


def _z_twins(rng, name, eps, measure):
    """An exact Z-word query and, next to it, its float twin.

    The twin turns every measure parameter into a float; the point mass at 0
    has none, so its twin takes the scale c as a float instead.
    """
    word = rotated(eps, rng.randrange(len(eps)))
    exact = {"eps": word, "measure": measure, "float_measure": False, "float_c": False}
    twin = dict(exact, float_measure=measure != "delta0", float_c=measure == "delta0")
    return [
        {"id": f"z:{measure}:{name}:exact", "op": "z_word", "args": exact},
        {"id": f"z:{measure}:{name}:float", "op": "z_word", "args": twin},
    ]


def pairing_cold(rng: random.Random) -> list[dict]:
    # The stars come first, in a fixed order: their down-set DP sets the peak
    # memory, which then does not depend on what the shuffle put before them.
    head = []
    for nv in range(16, 21):  # adjacent pairs fold to a star with nv - 1 leaves
        unit = ONE + STAR if rng.random() < 0.5 else STAR + ONE
        pairs = [(2 * i + 1, 2 * i + 2) for i in range(nv - 1)]
        head.append({"id": f"star:{nv}", "op": "nto",
                     "args": {"pairs": pairs, "eps": unit * (nv - 1), "star": nv}})
    for p in range(6, 10):  # (T*T)^p or its rotation (T T*)^p
        eps = (STAR + ONE) * p if rng.random() < 0.5 else (ONE + STAR) * p
        head.append({"id": f"tstt:p{p}", "op": "t_word", "args": {"eps": eps, "p": p}})
    groups = []  # shuffled as units, so a float twin stays after its exact query
    for length in range(2, 13, 2):
        for w in _necklaces(length):
            rep = rotated(w, rng.randrange(length))
            groups.append([{"id": f"tclass:{w}", "op": "t_word", "args": {"eps": rep}}])

    for p in (3, 4, 5):
        groups.append(_z_twins(rng, f"zszp{p}", (STAR + ONE) * p, "disk:1"))
    for n in (4, 5, 6):
        groups.append(_z_twins(rng, f"znzsn{n}", ONE * n + STAR * n, "annulus:3/2"))
    groups.append(_z_twins(rng, "z3zs5", ONE * 3 + STAR * 5, "annulus:3/2"))
    groups.append(_z_twins(rng, "zszp5", (STAR + ONE) * 5, "ellipse:1,1/2"))
    groups.append(_z_twins(rng, "zszp5", (STAR + ONE) * 5, "delta0"))
    for measure in ("disk:1", "annulus:3/2", "ellipse:1,1/2", "delta0"):
        for j in range(3):
            eps = "".join(rng.choice((ONE, STAR)) for _ in range(8))
            groups.append(_z_twins(rng, f"rand{j}-{eps}", eps, measure))

    spent, j = 0, 0
    while spent < PAIRING_DP_BUDGET:
        pairs, eps = random_pairing(rng, rng.randint(15, 23))
        n, covers = folded_tree(pairs, eps)
        work = count_order_ideals(n, covers) * n
        if work > PAIRING_DP_ITEM_CAP:
            continue
        spent += work
        groups.append([{"id": f"ncp:{j}", "op": "nto", "args": {"pairs": pairs, "eps": eps}}])
        j += 1
    for j in range(24):  # small trees, checked by brute force
        pairs, eps = random_pairing(rng, rng.randint(4, 8))
        groups.append([{"id": f"small:{j}", "op": "nto", "args": {"pairs": pairs, "eps": eps}}])
    rng.shuffle(groups)
    return head + [item for group in groups for item in group]


def _composition(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def closed_forms(rng: random.Random) -> list[dict]:
    items = []
    for n in range(1, 13):
        for k in range(1, 12 // n + 1):
            items.append({"id": f"conj:k{k}n{n}", "op": "m_recursive",
                          "args": {"seq": [k, k] * n, "k": k, "n": n}})
    for j in range(400):
        blocks = rng.randint(1, 6)
        degree = rng.randint(blocks, 12)
        ks, ls = _composition(rng, degree, blocks), _composition(rng, degree, blocks)
        seq = [v for pair in zip(ks, ls) for v in pair]
        items.append({"id": f"alt:{j}", "op": "m_recursive", "args": {"seq": seq}})
    for order in (8, 12, 16):
        items.append({"id": f"l_limit:o{order}", "op": "series_check", "args": {"check": "l_limit", "order": order}})
        for big_n in rng.sample(range(2, 10), 3):
            for check in ("kn", "ln", "fnr"):
                items.append({"id": f"{check}:N{big_n}:o{order}", "op": "series_check",
                              "args": {"check": check, "N": big_n, "order": order}})
    for order in range(8, 17, 2):
        items.append({"id": f"cumulants:o{order}", "op": "cumulants", "args": {"order": order}})
    for p in range(9):
        items.append({"id": f"dmoment:{p}", "op": "density_moment", "args": {"p": p}})
    items.append({"id": "grid", "op": "density_grid", "args": {"num": rng.randint(300, 500)}})
    # the fixed uniform v-grid over (0, pi) on which defect 4(b) shows
    for i in range(1, 401):
        items.append({"id": f"phi:{i}", "op": "phi_roundtrip", "args": {"v": math.pi * i / 401}})
    rng.shuffle(items)
    return items


def _random_z_letters(rng, length):
    """Seeded letters at a fixed length: a trial's cost grows with the number
    of matrix products, so a random length would tie batch time to the seed."""
    return [rng.choice(("Z", "Z*")) for _ in range(length)]


def mc_large(rng: random.Random) -> list[dict]:
    mc_seed = rng.randrange(2**32)
    items = [{"id": "sweep", "op": "sweep", "args": {"max_len": 6, "n": 512, "trials": 2, "seed": mc_seed}}]
    for j, length in enumerate((4, 5, 6)):
        eps = "".join(rng.choice((ONE, STAR)) for _ in range(length))
        items.append({"id": f"elliptic:{j}-{eps}", "op": "elliptic",
                      "args": {"theta": math.pi / 4, "eps": eps, "n": 256, "trials": 16, "seed": mc_seed + j}})
    words = [["Z*", "Z"], ["Z*", "Z"] * 2, _random_z_letters(rng, 5), _random_z_letters(rng, 6)]
    for j, letters in enumerate(words):
        items.append({"id": f"zdisk:{j}-{''.join(letters)}", "op": "estimate",
                      "args": {"letters": letters, "measure": "disk:1", "n": 256, "trials": 16, "seed": mc_seed + 10 + j}})
    return items


def mc_small(rng: random.Random) -> list[dict]:
    mc_seed = rng.randrange(2**32)
    items = [{"id": "tts:n8", "op": "estimate",
              "args": {"letters": ["T", "T*"], "measure": None, "n": 8, "trials": 8000, "seed": mc_seed}}]
    for j in range(6):
        measure = ("disk:1", "annulus:3/2")[j % 2]
        letters = _random_z_letters(rng, 2 + j % 3)
        n = (8, 16, 32)[j % 3]
        items.append({"id": f"z:{measure}:{j}-{''.join(letters)}:n{n}", "op": "estimate",
                      "args": {"letters": letters, "measure": measure, "n": n, "trials": 3000, "seed": mc_seed + 1 + j}})
    for j, length in enumerate((3, 4)):
        eps = "".join(rng.choice((ONE, STAR)) for _ in range(length))
        items.append({"id": f"detdiag:{j}-{eps}", "op": "det_diag",
                      "args": {"eps": eps, "n": 16, "trials": 3000, "seed": mc_seed + 10 + j}})
    return items


_BUILDERS = {
    "pairing-cold": pairing_cold,
    "closed-forms": closed_forms,
    "mc-large": mc_large,
    "mc-small": mc_small,
}


def generate(workload: str, seed: int) -> list[dict]:
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
