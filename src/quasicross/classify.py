"""Aggregation pipeline: per-dimension verdicts, certificate store (whose
packaged copy is the registry of known tilings), summaries and report
emission.

Every verdict is recorded by Verdicts.verdict, in a memo that maps n to the
status of each dimension classified so far and is the divisor recursion's
oracle.  A dimension the recursion reads that the memo does not hold yet is
classified on that lookup, and every reachable n' satisfies n' < n, so the
recursion always ends.  classify_range asks the memo for n = 1..n_max in
ascending order, and check asks only for the dimensions its one n reaches.
Unknown is the default: the pipeline never guesses existence, it only
accepts certificates, each a Splitting and so verified when it was built,
and the trivial dimension.

At each dimension Verdicts.walk calls the criteria in reporting order, each
only where it can fire (criteria.last_firing_n: the arms, the class of q and
the parity of n give each criterion its last n), and returns the first
outcome that fires with the step after it, from which the same walk resumes.
A skipped criterion would not have fired, so the walk, resumed after each
outcome it returns, returns the firing outcomes of criteria.outcomes.  A
verdict needs only the first, so classify_range calls the criteria only up
to that one; a dimension with tiling evidence thus runs every criterion that
can fire there unless one fires, and a firing there aborts the run as a
contradiction either way.  summarize resumes the walk after the verdict's
outcome to count the rest, so each dimension is walked once.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence
from weakref import proxy

from . import criteria
from .criteria import CRITERION_ORDER, CriterionOutcome, VerdictStatus
from .criteria import _NO_TILING, _RULED_OUT, _TILES, _UNKNOWN
from .numtheory import is_prime
from .splitting import QuasiCrossShape, Splitting, from_json_line, to_json_line

__all__ = [
    "ClassificationRun",
    "ContradictionError",
    "Summary",
    "TilesSource",
    "Verdict",
    "Verdicts",
    "classify_range",
    "default_certificates_path",
    "default_registry",
    "load_certificates",
    "report_csv",
    "report_json",
    "report_text",
    "store_certificate",
    "summarize",
    "witness_text",
]


class TilesSource(Enum):
    TRIVIAL = "trivial"
    REGISTRY = "registry"
    CERTIFICATE = "certificate"


class Verdict(NamedTuple):
    n: int
    q: int
    status: VerdictStatus
    source: TilesSource | None = None
    criterion_id: str | None = None
    witness: dict | None = None


class ContradictionError(RuntimeError):
    """A dimension with tiling evidence was simultaneously ruled out."""

    def __init__(self, n: int, tiles_source: TilesSource, outcome: CriterionOutcome):
        self.n = n
        self.tiles_source = tiles_source
        self.outcome = outcome
        super().__init__(
            f"dimension {n}: tiling evidence ({tiles_source.value}) contradicts "
            f"criterion {outcome.criterion_id} firing with witness {outcome.witness}"
        )


def default_certificates_path() -> Path:
    """Certificate store shipped with the library."""
    return Path(__file__).parent / "data" / "certificates.jsonl"


def default_registry(k_plus: int, k_minus: int) -> tuple[Splitting, ...]:
    """The packaged store's certificates for one shape: the registry of
    known tilings.  Every line was found by find_splitting, and regenerates
    with quasicross search --store."""
    return tuple(
        cert
        for cert in load_certificates(default_certificates_path())
        if (cert.k_plus, cert.k_minus) == (k_plus, k_minus)
    )


def _certificates(path, lines: Sequence[bytes], lineno: int) -> tuple[Splitting, ...]:
    """Parse raw store lines into Splittings, each verified as it is built,
    the first line being line lineno + 1.

    A line is decoded on its own, so text that is not UTF-8 is reported
    with its line too, and any ValueError is raised again naming the file
    and line.
    """
    out = []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        try:
            line = raw.decode("utf-8").strip()
            if line:
                out.append(from_json_line(line))
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise ValueError(f"{path}, line {lineno}: {exc}") from exc
    return tuple(out)


# The last store read, with the lines this process appended to it since:
# its bytes up to their last line end, the number of lines in them, and
# their certificates, in order.  It is one tuple, read and replaced whole, so
# a reader always sees a consistent entry and at worst parses bytes another
# reader has just parsed.
_last_store: tuple[bytes, int, tuple[Splitting, ...]] = (b"", 0, ())


def _parse_store(path, data: bytes) -> tuple[Splitting, ...]:
    """The certificates in a store's bytes, in order.

    Bytes that begin with those of the last store read, up to its last line
    end, are parsed only after them; any other bytes are parsed whole.  The
    test is on the bytes alone, so an edit, a truncation or another file is
    always parsed again.  Lines end at b"\n" only, as in file iteration.  A
    bad line is never kept, and a last line without its newline is parsed
    but not kept, so a bad store fails on every read.

    The memo serves one store.  Reads that alternate between two stores
    parse and verify each whole on every read: ten alternating reads of the
    packaged store and of a copy without its first line call verify_cover
    155 times, where ten reads of one store call it 16 times.  No command
    alternates: classify, check and summarize read the packaged store and
    then --certificates, once each, and search --store reads one store.
    """
    global _last_store
    prefix, lineno, certs = _last_store
    if not data.startswith(prefix):
        prefix, lineno, certs = b"", 0, ()
    *lines, tail = data[len(prefix):].split(b"\n")
    certs += _certificates(path, lines, lineno)
    lineno += len(lines)
    _last_store = (data[: len(data) - len(tail)], lineno, certs)
    return certs + _certificates(path, [tail], lineno)


def load_certificates(path) -> tuple[Splitting, ...]:
    """Read a JSON-lines certificate store; every entry is a Splitting, so
    it is verified as it is parsed.

    A certificate that fails verification is a hard error naming the first
    collision (or other defect), as is any malformed line, each with its
    file and line.  Only the bytes after those of the last store read are
    parsed (see _parse_store).
    """
    with open(path, "rb") as fh:
        return _parse_store(path, fh.read())


def store_certificate(splitting: Splitting, path) -> bool:
    """Append a certificate, skipping exact duplicates.  A Splitting was
    verified when it was built, so nothing is verified again here.

    Returns True when a line was written, False when the certificate was
    already present.  Refuses to append to a store that fails to load.
    When the memo of the last store read (see _parse_store) holds every
    byte the append read, it is extended by the line written.
    """
    global _last_store
    with open(path, "a+b") as fh:
        fh.seek(0)
        data = fh.read()
        if splitting in _parse_store(path, data):
            return False
        line = to_json_line(splitting).encode("utf-8") + b"\n"
        if data and not data.endswith(b"\n"):
            # The last line lacks its newline; ours must not run into it.
            line = b"\n" + line
        fh.write(line)
    prefix, lineno, certs = _last_store
    if prefix == data:
        # data + line parse to certs + (splitting,), so the next read of
        # this store parses nothing this append wrote.
        _last_store = (data + line, lineno + 1, certs + (splitting,))
    return True


class ClassificationRun(NamedTuple):
    """Verdicts for n = 1..n_max, in order, as the reports read them.  Each
    no_tiling verdict names only its first firing criterion; summarize
    counts the others on its own walk."""

    k_plus: int
    k_minus: int
    n_max: int
    verdicts: tuple[Verdict, ...]


class Verdicts(dict):
    """The verdict memo of one shape: n -> VerdictStatus for every dimension
    classified so far, and the divisor recursion's oracle.  Reading a
    dimension it does not hold classifies that dimension first.

    The constructor builds the n_max shape, n_max being the largest
    dimension a caller will ask for, which refuses every bad run size before
    any dimension is classified.
    Registry and certificate entries are Splittings, verified when they were
    built, and are used as they are; entries for other shapes are ignored.
    Dimension 1 always tiles (S = {1} splits trivially); a registry or
    certificate hit yields Tiles.

    It also builds the verdict walk from criteria.SHAPE_CRITERIA as it
    reads then, the divisor recursion reading this memo, and
    criteria.last_firing_n alone.  Each class of q and parity of n, keyed
    (q prime, n odd), walks the checks whose last n there is above 0.  The
    head, the longest prefix of the four class walks that they share, holds
    each of its checks paired with its last n.  The tails hold the rest of
    each class walk as bare checks: the one criterion last_firing_n bounds
    in n comes first in reporting order and can fire in every class, so it
    always sits in the head.  The recursion reads the memo through a weak
    proxy, so no reference cycle keeps a memo alive after its run.
    """

    def __init__(
        self,
        k_plus: int,
        k_minus: int,
        n_max: int,
        registry: Sequence[Splitting] = (),
        certificates: Sequence[Splitting] = (),
    ):
        super().__init__()
        QuasiCrossShape(k_plus, k_minus, n_max)  # refuses a bad run size before the walk is built
        self.k_plus = k_plus
        self.k_minus = k_minus
        # Tiling evidence per dimension; later entries win, so the precedence
        # is trivial > registry > certificate.
        self.evidence = {
            cert.dimension: source
            for certs, source in ((certificates, TilesSource.CERTIFICATE), (registry, TilesSource.REGISTRY))
            for cert in certs
            if (cert.k_plus, cert.k_minus) == (k_plus, k_minus)
        }
        self.evidence[1] = TilesSource.TRIVIAL
        oracle, check_divisors = proxy(self), criteria.check_divisors
        checks = (*criteria.SHAPE_CRITERIA, ("divisors", lambda shape: check_divisors(shape, oracle)))
        walks = {}
        for prime in (True, False):
            for odd in (True, False):
                last = criteria.last_firing_n(k_plus, k_minus, prime, odd)
                walks[prime, odd] = [(last[cid], check) for cid, check in checks if last[cid] > 0]
        # The four walks can agree on all of the shortest, as for arms (1, 1);
        # the head is then that whole walk.
        shortest = min(walks.values(), key=len)
        split = next((i for i, step in enumerate(shortest)
                      if any(walk[i] != step for walk in walks.values())), len(shortest))
        self.head = tuple(shortest[:split])
        self.tails = {key: tuple(check for _, check in walk[split:]) for key, walk in walks.items()}

    def __missing__(self, n: int) -> VerdictStatus:
        shape = QuasiCrossShape(self.k_plus, self.k_minus, n)
        return self.verdict(shape, self.walk(shape)[0]).status

    def walk(self, shape: QuasiCrossShape, start: int = 0) -> tuple[CriterionOutcome | None, int]:
        """The first outcome that rules shape out at step start of shape's
        walk or after it, and the step after that outcome; None and the
        walk's length if none does.  shape has this memo's arms.

        The walk calls the criteria in reporting order, each only where
        criteria.last_firing_n lets it fire: the head up to each check's
        last n, then one primality test of q and the tail for q's class and
        n's parity, which at composite q ends with the divisor recursion
        reading this memo.  A skipped criterion cannot fire, so the walk
        from step 0, resumed after each outcome it returns, returns the
        firing outcomes of criteria.outcomes(shape, self), in order.
        """
        n = shape.n
        step = start
        for last, check in self.head[start:]:
            step += 1
            if n <= last and (out := check(shape)).status is _RULED_OUT:
                return out, step
        tail = self.tails[is_prime(shape.group_order), n % 2 == 1]
        for check in tail[step - len(self.head):]:
            step += 1
            if (out := check(shape)).status is _RULED_OUT:
                return out, step
        return None, step

    def verdict(self, shape: QuasiCrossShape, fired: CriterionOutcome | None) -> Verdict:
        """Record the verdict of shape's dimension and return it; shape has
        this memo's arms, and fired is its first firing outcome in reporting
        order, or None if none fires, as self.walk(shape) finds it.

        Tiling evidence yields Tiles; otherwise fired yields NoTiling;
        otherwise Unknown.  At a dimension with tiling evidence the walk
        runs every criterion that can fire there, unless one fires, which
        raises ContradictionError here and records nothing.
        """
        n = shape.n
        tiles_source = self.evidence.get(n)
        if tiles_source is not None:
            if fired is not None:
                raise ContradictionError(n, tiles_source, fired)
            verdict = Verdict(n, shape.group_order, _TILES, tiles_source)
        elif fired is not None:
            verdict = Verdict(n, shape.group_order, _NO_TILING, None, fired.criterion_id, fired.witness)
        else:
            verdict = Verdict(n, shape.group_order, _UNKNOWN)
        self[n] = verdict.status
        return verdict


def classify_range(
    k_plus: int,
    k_minus: int,
    n_max: int,
    registry: Sequence[Splitting] = (),
    certificates: Sequence[Splitting] = (),
) -> ClassificationRun:
    """Classify every dimension 1..n_max for one shape, in ascending order,
    with Verdicts.walk and Verdicts.verdict; the inputs are checked first,
    as Verdicts describes.  The first contradiction aborts the run."""
    memo = Verdicts(k_plus, k_minus, n_max, registry, certificates)
    verdicts = []
    for n in range(1, n_max + 1):
        shape = QuasiCrossShape(k_plus, k_minus, n)
        verdicts.append(memo.verdict(shape, memo.walk(shape)[0]))
    return ClassificationRun(k_plus, k_minus, n_max, tuple(verdicts))


class Summary(NamedTuple):
    k_plus: int
    k_minus: int
    n_max: int
    status_counts: dict[str, int]
    tiles_dims: tuple[int, ...]
    unknown_dims: tuple[int, ...]
    first_fired: dict[str, int]
    independent_fired: dict[str, int]
    sanity_lines: tuple[str, ...]

    def to_text(self) -> str:
        lines = [
            f"shape ({self.k_plus},{self.k_minus}), dimensions 1..{self.n_max}",
            "status counts: "
            + " ".join(f"{k}={v}" for k, v in self.status_counts.items()),
            "tiles: " + (" ".join(map(str, self.tiles_dims)) or "(none)"),
            "unknown: " + (" ".join(map(str, self.unknown_dims)) or "(none)"),
            "criterion            fired  first-attributed",
        ]
        for cid in CRITERION_ORDER:
            lines.append(
                f"  {cid:<18} {self.independent_fired[cid]:>6} {self.first_fired[cid]:>6}"
            )
        lines.extend(self.sanity_lines)
        return "\n".join(lines) + "\n"


def summarize(
    k_plus: int,
    k_minus: int,
    n_max: int,
    registry: Sequence[Splitting] = (),
    certificates: Sequence[Splitting] = (),
) -> Summary:
    """Classify every dimension 1..n_max for one shape, as classify_range
    does, and return the status counts, per-criterion firing statistics
    (independent of the first-fired attribution), and residue-class sanity
    lines.

    Each dimension is walked once, by Verdicts.walk: its verdict takes the
    first firing outcome, and the independent counts take that one and each
    one the walk, resumed after it, returns next, so each criterion runs
    once at each n where it can fire.  None fires where the verdict is tiles
    or unknown.
    """
    memo = Verdicts(k_plus, k_minus, n_max, registry, certificates)
    first_fired = dict.fromkeys(CRITERION_ORDER, 0)
    independent = dict.fromkeys(CRITERION_ORDER, 0)
    for n in range(1, n_max + 1):
        shape = QuasiCrossShape(k_plus, k_minus, n)
        fired, step = memo.walk(shape)
        memo.verdict(shape, fired)
        if fired is not None:
            first_fired[fired.criterion_id] += 1
        while fired is not None:
            independent[fired.criterion_id] += 1
            fired, step = memo.walk(shape, step)
    # The recursion reads only smaller dimensions, so the memo holds exactly
    # 1..n_max, in ascending order.
    tiles_dims = tuple(n for n, status in memo.items() if status is _TILES)
    unknown_dims = tuple(n for n, status in memo.items() if status is _UNKNOWN)
    # Each no_tiling dimension has one first-fired criterion.
    status_counts = {"tiles": len(tiles_dims), "no_tiling": sum(first_fired.values()),
                     "unknown": len(unknown_dims)}
    mod3_dims = [status for n, status in memo.items() if n >= 2 and n % 3 == 2]
    mod3_ruled = sum(1 for status in mod3_dims if status is _NO_TILING)
    survivors = sorted({n % 36 for n, status in memo.items() if n >= 2 and status is not _NO_TILING})
    sanity = (
        f"n = 2 (mod 3), n >= 2: {mod3_ruled}/{len(mod3_dims)} ruled out",
        "surviving residues mod 36 (n >= 2): "
        + (" ".join(map(str, survivors)) if survivors else "(none)"),
    )
    return Summary(
        k_plus,
        k_minus,
        n_max,
        status_counts,
        tiles_dims,
        unknown_dims,
        first_fired,
        independent,
        sanity,
    )


def witness_text(witness: dict | None) -> str:
    """Compact deterministic rendering of a witness: k=v pairs, lists joined by +."""
    if not witness:
        return ""
    parts = []
    for k, v in witness.items():
        if isinstance(v, (tuple, list)):
            parts.append(f"{k}=" + "+".join(str(x) for x in v))
        else:
            parts.append(f"{k}={v}")
    return " ".join(parts)


def _rows(run: ClassificationRun) -> Iterable[tuple[int, int, str, str, str]]:
    for v in run.verdicts:
        last = v.source._value_ if v.status is _TILES else witness_text(v.witness)
        yield v.n, v.q, v.status._value_, v.criterion_id or "", last


def report_csv(run: ClassificationRun) -> str:
    """CSV report, one row per dimension, ordered by n (byte-stable)."""
    lines = ["n,q,status,criterion,witness"]
    for n, q, status, criterion, witness in _rows(run):
        lines.append(f"{n},{q},{status},{criterion},{witness}")
    return "\n".join(lines) + "\n"


def _witness_json(witness: dict | None) -> str:
    """A witness as JSON: null for no witness, else {"key":value,...} in
    insertion order, each value an int or a tuple of ints written [a,b,...].

    Its keys are the criterion's keyword names, which JSON quotes as they
    are.  Any other value (bool, str, float, None, a container other than a
    tuple, or a tuple holding a non-int) raises TypeError naming its key, so
    a new kind of witness value fails instead of printing text that is not
    JSON."""
    if witness is None:
        return "null"
    fields = []
    for key, value in witness.items():
        if type(value) is int:
            fields.append(f'"{key}":{value}')
        elif type(value) is tuple and all(type(x) is int for x in value):
            fields.append(f'"{key}":[{",".join(map(str, value))}]')
        else:
            raise TypeError(f"witness value of {key!r} is not an int or a tuple of ints: {value!r}")
    return "{" + ",".join(fields) + "}"


def report_json(run: ClassificationRun) -> str:
    """JSON array report ordered by n (byte-stable).

    No row or witness goes through json: each row is written directly.  Its
    keys are fixed, the status, source and criterion are identifiers that
    JSON quotes as they are, and the witness is written by _witness_json,
    which accepts only ints and tuples of ints as values.  So the output is
    the bytes of json.dumps(rows, separators=(",", ":")) without building
    the rows."""
    rows = []
    for v in run.verdicts:
        source = f'"{v.source._value_}"' if v.source is not None else "null"
        criterion = f'"{v.criterion_id}"' if v.criterion_id is not None else "null"
        rows.append(
            f'{{"n":{v.n},"q":{v.q},"status":"{v.status._value_}","source":{source},'
            f'"criterion":{criterion},"witness":{_witness_json(v.witness)}}}'
        )
    return "[" + ",".join(rows) + "]\n"


def report_text(run: ClassificationRun) -> str:
    """Aligned-column text report ordered by n (byte-stable)."""
    rows = list(_rows(run))
    wn = max([len("n"), *(len(str(r[0])) for r in rows)])
    wq = max([len("q"), *(len(str(r[1])) for r in rows)])
    ws = max([len("status"), *(len(r[2]) for r in rows)])
    wc = max([len("criterion"), *(len(r[3]) for r in rows)])
    lines = [f"{'n':>{wn}} {'q':>{wq}} {'status':<{ws}} {'criterion':<{wc}} witness"]
    for n, q, status, criterion, witness in rows:
        lines.append(f"{n:>{wn}} {q:>{wq}} {status:<{ws}} {criterion:<{wc}} {witness}".rstrip())
    return "\n".join(lines) + "\n"
