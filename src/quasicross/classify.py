"""Aggregation pipeline: per-dimension verdicts, known-tilings registry,
certificate store, summaries and report emission.

Every verdict is made by Verdicts.verdict, on a memo that maps n to the
status of each dimension classified so far and is the divisor recursion's
oracle.  A dimension the recursion reads that the memo does not hold yet is
classified on that lookup, and every reachable n' satisfies n' < n, so the
recursion always ends.  classify_range asks the memo for n = 1..n_max in
ascending order, and check asks only for the dimensions its one n reaches.
Unknown is the default: the pipeline never guesses existence, it only
accepts registry entries, verified certificates, and the trivial dimension.

A verdict needs only the first criterion that fires in reporting order, so
at each dimension the memo takes the outcomes of criteria.outcomes (the
shape criteria, then the divisor recursion) up to that one.  A dimension
with tiling evidence thus runs every criterion unless one fires, and a
firing there aborts the run as a contradiction either way.  A run keeps
only its verdicts: they name each dimension's first firing criterion, and
none fired where the verdict is tiles or unknown, so summarize asks
criteria.outcomes for just the criteria after that one.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .criteria import CRITERION_ORDER, CriterionOutcome, CriterionStatus, VerdictStatus, outcomes
from .splitting import QuasiCrossShape, Splitting, check_arms, from_json_line, to_json_line, verify_splitting

__all__ = [
    "ClassificationRun",
    "ContradictionError",
    "Registry",
    "Summary",
    "TilesSource",
    "Verdict",
    "Verdicts",
    "classify_range",
    "default_certificates_path",
    "default_registry",
    "default_registry_path",
    "load_certificates",
    "load_registry",
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


class Registry(namedtuple("Registry", "k_plus k_minus dimensions source")):
    """Externally supplied dimensions with known tilings for one shape,
    stored sorted."""

    __slots__ = ()

    def __new__(cls, k_plus: int, k_minus: int, dimensions: Sequence[int], source: str = ""):
        check_arms(k_plus, k_minus)
        dims = tuple(sorted(dimensions))
        if len(set(dims)) != len(dims):
            raise ValueError("registry dimensions must be distinct")
        if dims and dims[0] < 1:
            raise ValueError("registry dimensions must be >= 1")
        return super().__new__(cls, k_plus, k_minus, dims, source)


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


def load_registry(path) -> Registry:
    """Read a registry file: {"k_plus", "k_minus", "dimensions", "source"}."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, too deeply nested or not UTF-8
            raise ValueError(f"registry {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"registry {path}: expected a JSON object")
    missing = [k for k in ("k_plus", "k_minus", "dimensions") if k not in obj]
    if missing:
        raise ValueError(f"registry {path}: missing fields: {', '.join(missing)}")
    kp, km, dims = obj["k_plus"], obj["k_minus"], obj["dimensions"]
    # type() rather than isinstance(): JSON true/false must not pass as 1/0.
    if not (type(kp) is int and type(km) is int):
        raise ValueError(f"registry {path}: k_plus and k_minus must be integers")
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise ValueError(f"registry {path}: dimensions must be a list of integers")
    try:
        return Registry(kp, km, tuple(dims), obj.get("source", ""))
    except ValueError as exc:  # arms out of order, repeated or non-positive dimensions
        raise ValueError(f"registry {path}: {exc}") from exc


def _data_path(name: str) -> Path:
    """Path of a file in the package's data directory."""
    # Imported here, not with the module: on Python 3.12 and later
    # importlib.resources imports inspect, which importing the package
    # should not pay for.
    from importlib import resources

    return Path(str(resources.files("quasicross").joinpath("data", name)))


def default_registry_path(k_plus: int, k_minus: int) -> Path | None:
    """Packaged registry file for a shape, if one ships with the library."""
    path = _data_path(f"registry_{k_plus}_{k_minus}.json")
    return path if path.is_file() else None


def default_registry(k_plus: int, k_minus: int) -> Registry | None:
    path = default_registry_path(k_plus, k_minus)
    return load_registry(path) if path is not None else None


def default_certificates_path() -> Path:
    """Certificate store shipped with the library."""
    return _data_path("certificates.jsonl")


def _verified(cert: Splitting) -> Splitting:
    """Return cert, or raise ValueError naming the reason it does not verify."""
    check = verify_splitting(cert)
    if not check:
        raise ValueError(f"certificate q={cert.q} does not verify: {check.reason}")
    return cert


def _certificates(path, lines: Sequence[bytes], lineno: int) -> tuple[Splitting, ...]:
    """Parse and verify raw store lines, the first being line lineno + 1.

    A line is decoded on its own, so text that is not UTF-8 is reported
    with its line too, and any ValueError is raised again naming the file
    and line.
    """
    out = []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        try:
            line = raw.decode("utf-8").strip()
            if line:
                out.append(_verified(from_json_line(line)))
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise ValueError(f"{path}, line {lineno}: {exc}") from exc
    return tuple(out)


# The last store read, with the lines this process appended to it since:
# its bytes up to their last line end, the number of lines in them, and
# their certificates, in order and as a set.  It is one
# tuple, read and replaced whole, so a reader always sees a consistent entry
# and at worst parses bytes another reader has just parsed.
_last_store: tuple[bytes, int, tuple[Splitting, ...], frozenset[Splitting]] = (b"", 0, (), frozenset())


def _parse_store(path, data: bytes) -> tuple[tuple[Splitting, ...], frozenset[Splitting]]:
    """The verified certificates in a store's bytes, in order and as a set.

    Bytes that begin with those of the last store read, up to its last line
    end, are parsed only after them; any other bytes are parsed whole.  The
    test is on the bytes alone, so an edit, a truncation or another file is
    always parsed again.  Lines end at b"\n" only, as in file iteration.  A
    bad line is never kept, and a last line without its newline is parsed
    but not kept, so a bad store fails on every read.
    """
    global _last_store
    prefix, lineno, certs, seen = _last_store
    if not data.startswith(prefix):
        prefix, lineno, certs, seen = b"", 0, (), frozenset()
    *lines, tail = data[len(prefix):].split(b"\n")
    new = _certificates(path, lines, lineno)
    certs, seen = certs + new, seen.union(new)
    lineno += len(lines)
    _last_store = (data[: len(data) - len(tail)], lineno, certs, seen)
    last = _certificates(path, [tail], lineno)
    return (certs + last, seen.union(last)) if last else (certs, seen)


def load_certificates(path) -> tuple[Splitting, ...]:
    """Read a JSON-lines certificate store, verifying every entry.

    A certificate that fails verification is a hard error naming the first
    collision (or other defect), as is any malformed line, each with its
    file and line.  Only the bytes after those of the last store read are
    parsed (see _parse_store).
    """
    with open(path, "rb") as fh:
        return _parse_store(path, fh.read())[0]


def store_certificate(splitting: Splitting, path) -> bool:
    """Append a verified certificate, skipping exact duplicates.

    Returns True when a line was written, False when the certificate was
    already present.  Refuses to store anything that fails verification,
    before the file is opened, and to append to a store that fails to load.
    When the memo of the last store read (see _parse_store) holds every
    byte the append read, it is extended by the line written.
    """
    global _last_store
    check = verify_splitting(splitting)
    if not check:
        raise ValueError(f"refusing to store unverified splitting: {check.reason}")
    path = Path(path)
    with open(path, "a+b") as fh:
        fh.seek(0)
        data = fh.read()
        if splitting in _parse_store(path, data)[1]:
            return False
        line = to_json_line(splitting).encode("utf-8") + b"\n"
        if data and not data.endswith(b"\n"):
            # The last line lacks its newline; ours must not run into it.
            line = b"\n" + line
        fh.write(line)
    prefix, lineno, certs, seen = _last_store
    if prefix == data:
        # data + line parse to certs + (splitting,), so the next read of
        # this store parses nothing this append wrote.
        _last_store = (data + line, lineno + 1, certs + (splitting,), seen | {splitting})
    return True


class ClassificationRun(NamedTuple):
    """Verdicts for n = 1..n_max, in order.  The per-criterion outcomes at
    any n follow from them: criteria.outcomes on the shape, with the verdict
    statuses as the divisor recursion's oracle."""

    k_plus: int
    k_minus: int
    n_max: int
    verdicts: tuple[Verdict, ...]


class Verdicts(dict):
    """The verdict memo of one shape: n -> VerdictStatus for every dimension
    classified so far, and the divisor recursion's oracle.  Reading a
    dimension it does not hold classifies that dimension first.

    The constructor checks the inputs of a classification up to n_max, the
    largest dimension a caller will ask for, before any dimension is
    classified: n_max >= 1, the group order of n_max fits in 64 bits, the
    registry is for this shape, and every certificate for this shape
    verifies.  Dimension 1 always tiles (S = {1} splits trivially); a
    registry or certificate hit yields Tiles.
    """

    def __init__(
        self,
        k_plus: int,
        k_minus: int,
        n_max: int,
        registry: Registry | None = None,
        certificates: Sequence[Splitting] = (),
    ):
        super().__init__()
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        # numtheory refuses moduli past 64 bits, so a walk to a larger q could
        # never reach its end; refuse it before the first dimension.
        q_max = n_max * (k_plus + k_minus) + 1
        if q_max.bit_length() > 64:
            raise ValueError(f"dimensions up to {n_max} reach q={q_max}; group orders must fit in 64 bits")
        if registry is not None and (registry.k_plus, registry.k_minus) != (k_plus, k_minus):
            raise ValueError(
                f"registry is for shape ({registry.k_plus},{registry.k_minus}), "
                f"classifying ({k_plus},{k_minus})"
            )
        self.k_plus = k_plus
        self.k_minus = k_minus
        # Tiling evidence per dimension; later entries win, so the precedence
        # is trivial > registry > certificate.  Every certificate for this
        # shape is verified here, before the first dimension.
        self.evidence = {
            _verified(cert).dimension: TilesSource.CERTIFICATE
            for cert in certificates
            if (cert.k_plus, cert.k_minus) == (k_plus, k_minus)
        }
        if registry is not None:
            self.evidence.update(dict.fromkeys(registry.dimensions, TilesSource.REGISTRY))
        self.evidence[1] = TilesSource.TRIVIAL

    def __missing__(self, n: int) -> VerdictStatus:
        return self.verdict(n).status

    def verdict(self, n: int) -> Verdict:
        """Classify dimension n and record its status.

        Tiling evidence yields Tiles; otherwise the first ruling criterion
        (in reporting order) yields NoTiling; otherwise Unknown.  The
        criteria run in reporting order up to the first that fires.  So at a
        dimension with tiling evidence every criterion runs, unless one
        fires, which raises ContradictionError and records nothing.
        """
        shape = QuasiCrossShape(self.k_plus, self.k_minus, n)
        fired = None
        for out in outcomes(shape, self):
            if out.status is CriterionStatus.RULED_OUT:
                fired = out
                break
        tiles_source = self.evidence.get(n)
        if tiles_source is not None:
            if fired is not None:
                raise ContradictionError(n, tiles_source, fired)
            verdict = Verdict(n, shape.group_order, VerdictStatus.TILES, source=tiles_source)
        elif fired is not None:
            verdict = Verdict(
                n,
                shape.group_order,
                VerdictStatus.NO_TILING,
                criterion_id=fired.criterion_id,
                witness=fired.witness,
            )
        else:
            verdict = Verdict(n, shape.group_order, VerdictStatus.UNKNOWN)
        self[n] = verdict.status
        return verdict


def classify_range(
    k_plus: int,
    k_minus: int,
    n_max: int,
    registry: Registry | None = None,
    certificates: Sequence[Splitting] = (),
) -> ClassificationRun:
    """Classify every dimension 1..n_max for one shape, in ascending order,
    with Verdicts.verdict; the inputs are checked first, as Verdicts
    describes.  The first contradiction aborts the run."""
    memo = Verdicts(k_plus, k_minus, n_max, registry, certificates)
    return ClassificationRun(k_plus, k_minus, n_max, tuple(map(memo.verdict, range(1, n_max + 1))))


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


def summarize(run: ClassificationRun) -> Summary:
    """Status counts, per-criterion firing statistics (independent of the
    first-fired attribution), and residue-class sanity lines.

    No criterion fired where a verdict is tiles or unknown, and a no_tiling
    verdict names the first that did, so the independent counts need only
    the criteria after that one, each run once.
    """
    if not run.verdicts:
        raise ValueError("nothing to summarize")
    status_counts = {"tiles": 0, "no_tiling": 0, "unknown": 0}
    for v in run.verdicts:
        status_counts[v.status.value] += 1
    tiles_dims = tuple(v.n for v in run.verdicts if v.status is VerdictStatus.TILES)
    unknown_dims = tuple(v.n for v in run.verdicts if v.status is VerdictStatus.UNKNOWN)
    first_fired = dict.fromkeys(CRITERION_ORDER, 0)
    independent = dict.fromkeys(CRITERION_ORDER, 0)
    oracle = {v.n: v.status for v in run.verdicts}
    for v in run.verdicts:
        if v.status is VerdictStatus.NO_TILING:
            first_fired[v.criterion_id] += 1
            independent[v.criterion_id] += 1
            shape = QuasiCrossShape(run.k_plus, run.k_minus, v.n)
            for out in outcomes(shape, oracle, CRITERION_ORDER.index(v.criterion_id) + 1):
                independent[out.criterion_id] += out.fired

    mod3_dims = [v for v in run.verdicts if v.n >= 2 and v.n % 3 == 2]
    mod3_ruled = sum(1 for v in mod3_dims if v.status is VerdictStatus.NO_TILING)
    survivors = sorted({v.n % 36 for v in run.verdicts if v.n >= 2 and v.status is not VerdictStatus.NO_TILING})
    sanity = (
        f"n = 2 (mod 3), n >= 2: {mod3_ruled}/{len(mod3_dims)} ruled out",
        "surviving residues mod 36 (n >= 2): "
        + (" ".join(map(str, survivors)) if survivors else "(none)"),
    )
    return Summary(
        run.k_plus,
        run.k_minus,
        run.n_max,
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
        if v.status is VerdictStatus.TILES:
            yield v.n, v.q, "tiles", "", v.source.value
        elif v.status is VerdictStatus.NO_TILING:
            yield v.n, v.q, "no_tiling", v.criterion_id, witness_text(v.witness)
        else:
            yield v.n, v.q, "unknown", "", ""


def report_csv(run: ClassificationRun) -> str:
    """CSV report, one row per dimension, ordered by n (byte-stable)."""
    lines = ["n,q,status,criterion,witness"]
    for n, q, status, criterion, witness in _rows(run):
        lines.append(f"{n},{q},{status},{criterion},{witness}")
    return "\n".join(lines) + "\n"


_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def report_json(run: ClassificationRun) -> str:
    """JSON array report ordered by n (byte-stable).

    Each row is written directly: its keys are fixed, and the status,
    source and criterion are identifiers that JSON quotes as they are.  Only
    the witness goes through the encoder, so the output is the bytes of
    json.dumps(rows, separators=(",", ":")) without building the rows."""
    rows = []
    for v in run.verdicts:
        source = f'"{v.source.value}"' if v.source is not None else "null"
        criterion = f'"{v.criterion_id}"' if v.criterion_id is not None else "null"
        rows.append(
            f'{{"n":{v.n},"q":{v.q},"status":"{v.status.value}","source":{source},'
            f'"criterion":{criterion},"witness":{_encode_json(v.witness)}}}'
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
