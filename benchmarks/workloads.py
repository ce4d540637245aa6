"""The three benchmark workloads: set-up, timed phase and output checks.

Each workload is a small class with three steps, run in one fresh
interpreter per repetition by ``worker.py``:

* ``setup(se)`` builds the groups (and, for ``query-mix``, their normal
  lattices). Its cost lands in ``setup_s``.
* ``run(se, seed, meter)`` is the timed phase, bracketed by
  ``meter.begin()`` and ``meter.end()`` (see ``pace.py``). It returns the
  operation count and whatever the check needs (``query-mix`` also returns
  one latency per query).
* ``check(se, out, seed)`` validates the outputs outside the timed region
  and returns the number of failed operations.

Every library argument is spelled out, so a later change to a library
default does not silently change a workload.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

# -- verify-1875 -------------------------------------------------------------

VERIFY_MAX_ORDER = 400
VERIFY_INSTANCE_CAP = 500
VERIFY_JOBS = 1
VERIFY_OPS = 5119
# SHA-256 of the run report without ``timing_ms`` (json, indent=2,
# sort_keys=True, trailing newline), as produced by the seed commit.
VERIFY_REPORT_SHA256 = "7c547256ce11dff0d02f1b2ac80d1d6fff5b32725e9a5d27494fbf88508cfeeb"


def report_digest(report) -> str:
    body = report.to_dict()
    body.pop("timing_ms")
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


class Verify1875:
    """The headline user run: all eight theorems over the order-<=400 corpus
    plus the order-1875 group, exactly as ``subembed verify --theorem all
    --max-order 400 --include-example-1875 --jobs 1``."""

    name = "verify-1875"
    nominal_ops = VERIFY_OPS

    def setup(self, se):
        se.builtin_corpus(VERIFY_MAX_ORDER, include_example_1875=True)

    def run(self, se, seed, meter):
        meter.begin()
        report = se.run_corpus(
            list(se.THEOREM_IDS),
            max_order=VERIFY_MAX_ORDER,
            jobs=VERIFY_JOBS,
            out_path=None,
            include_example_1875=True,
            instance_cap=VERIFY_INSTANCE_CAP,
        )
        meter.end()
        ops = sum(t.instances for t in report.theorems)
        return {"ops": ops, "report": report}

    def check(self, se, out, seed):
        report = out["report"]
        counterexamples = report.total_counterexamples
        digest_ok = report_digest(report) == VERIFY_REPORT_SHA256
        if not digest_ok or out["ops"] != VERIFY_OPS:
            return max(out["ops"], VERIFY_OPS)
        return counterexamples


# -- invariants-lattice ------------------------------------------------------

# SHA-256 of the json list of [name, lattice node count, lattice cover count,
# class_report(group).to_dict()] over INVARIANT_GROUPS, from the seed commit.
INVARIANTS_SHA256 = "06821445a07202b8ff91f6679b1a07db922ccb1a4d88dae9559df0f008ad93dc"


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, q: int) -> int:
    """Number of subgroups of the elementary abelian group of order q^n."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def invariant_groups(se):
    """(name, construction, closed-form lattice size or None), in run order.

    The normal subgroups of an abelian group of coprime elementary abelian
    factors are the products of subspaces, so their count is a product of
    Gaussian-binomial sums.
    """
    E, D = se.ElemAbelian, se.Direct
    return [
        ("C2^5", E(2, 5), subspace_count(5, 2)),
        ("C3^4", E(3, 4), subspace_count(4, 3)),
        ("C2^4xC3^2", D(E(2, 4), E(3, 2)), subspace_count(4, 2) * subspace_count(2, 3)),
        ("C2^3xC3^3", D(E(2, 3), E(3, 3)), subspace_count(3, 2) * subspace_count(3, 3)),
        ("D8xC2^3", D(se.Dihedral(8), E(2, 3)), None),
        ("Q8xC2^3", D(se.Quaternion8(), E(2, 3)), None),
        ("C2^5xC3", D(E(2, 5), se.Cyclic(3)), subspace_count(5, 2) * 2),
        ("S4xC2^3", D(se.Sym(4), E(2, 3)), None),
        ("S3xS3xC2^2", D(D(se.Sym(3), se.Sym(3)), E(2, 2)), None),
    ]


class InvariantsLattice:
    """``subembed invariants`` on lattice-rich groups of order <= 216:
    normal_lattice, then class_report, group by group."""

    name = "invariants-lattice"
    nominal_ops = 9

    def setup(self, se):
        self.groups = [
            (name, se.build(expr, cap=se.groups.DEFAULT_ORDER_CAP), closed)
            for name, expr, closed in invariant_groups(se)
        ]

    def run(self, se, seed, meter):
        results = []
        meter.begin()
        for name, group, _ in self.groups:
            lattice = se.normal_lattice(group, node_cap=se.normal.DEFAULT_NODE_CAP)
            results.append((name, lattice, se.class_report(group)))
        meter.end()
        return {"ops": len(results), "results": results}

    def check(self, se, out, seed):
        failed = 0
        rows = []
        for (name, lattice, report), (_, _, closed) in zip(out["results"], self.groups):
            if closed is not None and len(lattice.nodes) != closed:
                failed += 1
            rows.append([name, len(lattice.nodes), len(lattice.covers), report.to_dict()])
        text = json.dumps(rows, sort_keys=True)
        if hashlib.sha256(text.encode()).hexdigest() != INVARIANTS_SHA256:
            return out["ops"]
        return failed


# -- query-mix ---------------------------------------------------------------

QUERY_DEFAULT_SEED = 0
QUERIES_PER_CELL = 60  # per (group, property) pair
PROPERTIES = ("partial-s-pi", "partial-pi", "cap", "gen-cap", "s-quasinormal", "s-qn-embedded")
# SHA-256 of the answer lines of the stream for QUERY_DEFAULT_SEED, from the
# seed commit.
QUERY_ANSWERS_SHA256 = "fbdf7fc994eb975adbae865f52b490c42dedcaefd43fa632b4917a23d7233d12"


def query_groups(se):
    D = se.Direct
    return [
        ("S5", se.Sym(5)),
        ("SL(2,3)", se.SL23()),
        ("A4xC3", D(se.Alt(4), se.Cyclic(3))),
        ("D8xC2", D(se.Dihedral(8), se.Cyclic(2))),
        ("C5^3", se.ElemAbelian(5, 3)),
        ("S6", se.Sym(6)),
        ("A5xS3", D(se.Alt(5), se.Sym(3))),
        ("SL(2,3)xS4", D(se.SL23(), se.Sym(4))),
    ]


def _primes(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def query_stream(seed: int, orders: list[int]) -> list[tuple]:
    """A shuffled stream with QUERIES_PER_CELL queries per (group, property).

    Each query is (group position, property, prime or 0, raw choice, raw
    elements). Raw integers are reduced modulo the Sylow-conjugate count and
    the subgroup order when the query runs, so the stream depends only on the
    seed and the group orders.
    """
    rng = random.Random(seed)
    stream = []
    for gi, order in enumerate(orders):
        primes = _primes(order)
        for prop in PROPERTIES:
            for _ in range(QUERIES_PER_CELL):
                p = rng.choice(primes) if prop == "partial-s-pi" else 0
                raw = rng.randrange(1 << 30)
                elems = tuple(rng.randrange(1 << 30) for _ in range(rng.choice((1, 2))))
                stream.append((gi, prop, p, raw, elems))
    rng.shuffle(stream)
    return stream


class QueryMix:
    """A seeded closed-loop stream (one client) of span + predicate queries
    over all six predicates on eight small and mid-size groups."""

    name = "query-mix"
    nominal_ops = QUERIES_PER_CELL * len(PROPERTIES) * 8  # eight groups

    def setup(self, se):
        self.groups = []
        for name, expr in query_groups(se):
            group = se.build(expr, cap=se.groups.DEFAULT_ORDER_CAP)
            se.normal_lattice(group, node_cap=se.normal.DEFAULT_NODE_CAP)
            self.groups.append((name, group))

    def run(self, se, seed, meter):
        stream = query_stream(seed, [g.order for _, g in self.groups])
        predicates = {
            "partial-pi": se.partial_pi,
            "cap": se.cap,
            "gen-cap": se.gen_cap,
            "s-quasinormal": se.s_quasinormal,
            "s-qn-embedded": se.s_qn_embedded,
        }
        latencies, answers = [], []
        failed = 0
        perf = time.perf_counter
        meter.begin()
        for gi, prop, p, raw, elems in stream:
            group = self.groups[gi][1]
            # a query's latency leaves out reference loops that ran inside it
            t0 = perf() - meter.paused_s
            try:
                if prop == "partial-s-pi":
                    conjugates = se.sylow_conjugates(group, p)
                    sylow = conjugates[raw % len(conjugates)]
                    members = sylow.indices
                    h = se.span(group, [members[e % len(members)] for e in elems])
                    verdict = se.partial_s_pi(group, h, p)
                    answer = verdict.holds
                else:
                    h = se.span(group, [e % group.order for e in elems])
                    verdict = predicates[prop](group, h)
                    answer = bool(verdict)
            except Exception as exc:  # a failed query counts, the stream goes on
                latencies.append(perf() - meter.paused_s - t0)
                answers.append((gi, prop, p, None, None, repr(exc)))
                failed += 1
                continue
            latencies.append(perf() - meter.paused_s - t0)
            answers.append((gi, prop, p, h, verdict, answer))
        meter.end()
        return {
            "ops": len(stream),
            "latencies": latencies,
            "answers": answers,
            "failed": failed,
            "repeat_share": self.repeat_share(answers),
        }

    def answer_lines(self, answers) -> list[str]:
        lines = []
        for gi, prop, p, h, _, answer in answers:
            mask = "-" if h is None else format(h.mask, "x")
            lines.append(f"{self.groups[gi][0]}|{prop}|{p}|{mask}|{answer}")
        return lines

    def repeat_share(self, answers) -> float:
        seen, repeats = set(), 0
        for gi, prop, p, h, _, _ in answers:
            key = (gi, prop, p, None if h is None else h.mask)
            repeats += key in seen
            seen.add(key)
        return repeats / len(answers)

    def check(self, se, out, seed):
        recheck = se.embedding.recheck_witness_partial_s_pi
        failed = out["failed"]
        for gi, prop, p, h, verdict, answer in out["answers"]:
            if prop == "partial-s-pi" and answer is True:
                if not recheck(self.groups[gi][1], h, p, verdict.witness):
                    failed += 1
        if seed == QUERY_DEFAULT_SEED:
            text = "\n".join(self.answer_lines(out["answers"])) + "\n"
            if hashlib.sha256(text.encode()).hexdigest() != QUERY_ANSWERS_SHA256:
                return out["ops"]
        return failed


WORKLOADS = {w.name: w for w in (Verify1875(), InvariantsLattice(), QueryMix())}
