"""The seeded query stream of the element-queries workload, and the queries.

The runner builds the stream from the seed and hands the worker only the
generated inputs.  Each entry is ``[word, top]``: the element asked about is
``tau * s_word[0] * ... * s_word[-1]`` and ``top`` indexes the sorted Weyl
orbit of mu, naming the translation point ``t^(w mu)`` that the Bruhat query
compares against.  Half of the entries repeat an earlier entry exactly, so
half the queries read the memo caches that the other half fill.

Only ``make_stream`` is used by the runner, which must not import the engine;
the other functions run inside the worker.
"""

from __future__ import annotations

import random

QUERIES = 2000
MAX_WORD = 30
ORACLE_SAMPLE = 8


def make_stream(seed: int, genus: int, count: int = QUERIES) -> list:
    """Deterministic in (seed, genus, count).

    ``count // 2`` distinct entries are each asked twice, at random
    positions, so exactly half the queries repeat an earlier one.  Word
    lengths run evenly over 0..MAX_WORD and only the letters, the Bruhat
    target and the order depend on the seed, which keeps the amount of work
    alike from seed to seed.  Nodes are 0..genus and the orbit of the Siegel
    cocharacter has 2**genus points.
    """
    rng = random.Random(f"element-queries/{seed}/{genus}")
    half = count // 2
    lengths = [i % (MAX_WORD + 1) for i in range(half)]
    rng.shuffle(lengths)
    distinct = [[[rng.randrange(genus + 1) for _ in range(n)], rng.randrange(2 ** genus)]
                for n in lengths]
    order = [i for i in range(half) for _ in range(2)]
    rng.shuffle(order)
    return [distinct[i] for i in order]


def oracle_sample(seed: int, count: int) -> list[int]:
    """Indices of the queries re-checked against the brute-force oracles."""
    rng = random.Random(f"oracle-sample/{seed}")
    return sorted(rng.sample(range(count), min(ORACLE_SAMPLE, count)))


def translation_points(ctx) -> list:
    from ekor_atlas.admissible import weyl_orbit

    group = ctx.group
    mu = group.datum.to_lattice(ctx.mu)
    return [group.from_parts(lam, 0) for lam in weyl_orbit(group, mu)]


def answer(ctx, tops, word, top):
    """One point query; returns the element and its answers."""
    from ekor_atlas.ekor import is_basic, sigma_support, stable_level_subset

    group = ctx.group
    x = group.mult(ctx.tau.element, group.evaluate_word(word))
    supp = sigma_support(group, x)
    return x, (
        group.length(x),
        group.reduced_word(x),
        supp,
        is_basic(group, supp),
        group.newton_vector(x),
        stable_level_subset(group, x, ctx.hyperspecial),
        group.bruhat_leq(x, tops[top]),
    )


def answer_json(group, x, answers) -> list:
    length, rd, supp, basic, newton, iset, below = answers
    return [
        group.element_to_json(x),
        length,
        list(rd.word),
        group.element_to_json(rd.omega.element),
        sorted(supp.raw),
        sorted(supp.closure),
        basic,
        [str(c) for c in newton],
        sorted(iset),
        below,
    ]


def check(ctx, tops, x, answers, top, oracle: bool, cache: dict) -> bool:
    """Reduced word reproduces x with the right length; on the sampled
    queries also the brute-force stable subset and the subword Bruhat test."""
    from ekor_atlas.oracles import brute_stable_subset, bruhat_leq_subword

    group = ctx.group
    length, rd, _, _, _, iset, below = answers
    if group.evaluate_word(rd.word, rd.omega) != x or len(rd.word) != length:
        return False
    if not oracle:
        return True
    return (brute_stable_subset(group, x, ctx.hyperspecial) == iset
            and bruhat_leq_subword(group, x, tops[top], cache) == below)
