"""Batch command-line front end.

Subcommands::

    cyclo <n>                                  n-th cyclotomic polynomial
    minpoly --p P --n N --sign {+,-} --t T     full-degree minimal polynomial
    enumerate --g G --p P --n N                all degree-2g candidates
    verify --gmax G --pmax P --n N [--n N ...] parity check over a grid
    detect-half --g G --p P --n N              half-degree specs within 2g
    bounds --g G --p P --n N --file PATH       bound checks on a polynomial file

Every subcommand accepts ``--format {tsv,structured}`` (default tsv) and
produces byte-identical output for identical inputs.  Exit codes:
0 success, 1 parity-contract violation, 2 usage or validation error or
a failing stdout (one ``error:`` line), 3 internal error (any unexpected
exception, reported as ``internal error:`` and a traceback on stderr),
141 stdout closed early (what a shell reports for a tool that SIGPIPE
ends; nothing on stderr).  Help is written to stdout as output is.
Output items (TSV lines, JSON array elements) go from their maker
straight to the writer, which joins them with their separator in blocks
of at least 32 KiB (an item is never split): a run that
stops mid-output (exit 2 on a bad ``bounds`` line, or exit 3)
leaves the items made before the failure, without the final newline, and
exit 1's stderr line follows the full output.  Every other check runs
before the first byte: a ``verify`` grid must cover each g <= gmax with
a prime 2g+1 < p <= pmax <= 10**7 (the sieve cap) and name no n twice, a
printed constant term (q**g, or q**phi(2t) for ``minpoly``) must fit
Python's digit limit (for ``bounds`` q**g too: no row past it could be
symmetric), and the ``bounds`` file must open.  ``bounds`` reads its file
through :func:`weilparity.bounds.ingest_reference`, which makes each
distinct line's item, token's int and a_k's text once per run while
they fit in ``_MEMO_BUDGET`` kept characters.
Each JSON item is the text ``json.dumps`` would write, made by f-strings
without ``json``.
``enumerate`` and structured ``verify`` fill each cell's text from a
filler built once per report (once per g for ``verify``): literal pieces
around slots for p, n and each distinct (power of q, coefficient) pair,
which a cell converts to decimal once.  ``cyclo`` prints Phi_n
from Phi_rad(n), with k - 1 zeros between its coefficients for
k = n / rad(n), and never builds Phi_n.

Each call is a fresh process, so it loads only what its subcommand uses.
Importing this module loads no layer: each ``_cmd_*`` imports its layers
when it runs, reading each name off its module at that time (so a
wrapper installed there is seen).  The command line is read from one
table, ``_COMMANDS``, with the top level as one more row, ``_TOP``,
whose positional is the command; the parser and ``-h``/``--help`` both
read it.  It accepts what the argparse parser it replaced accepted,
with the same values: flags as ``--flag value`` or ``--flag=value``, any
unique prefix of a flag, ``--format`` before or after the subcommand
(the last wins), a repeated ``verify --n`` appended and any other
repeated flag kept last, negative numbers as values, and ``--`` ending
the options.
Help exits 0; a usage error writes its usage line and
``weilparity: error: ...`` to stderr, with exit 2.
"""

from __future__ import annotations

import errno
import os
import sys
from itertools import chain, compress
from math import log10
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .bounds import BoundsReport
    from .enumerator import ParityReport

_SIGN_TEXT = {1: "+", -1: "-"}
_BOOL_TEXT = ("false", "true")  # indexed by a bool
_CELL = ("g", "p", "n")


# Output is written in blocks of at least this many characters.
# Each write to a pipe wakes its reader, and a reader woken on the writer's
# CPU preempts it: one write per cell cost a thousand context switches on a
# 5 MB output, and the run time varied with where the reader was placed.
# A block is half a pipe's 64 KiB plus the rest of the item that filled it,
# and an item is never split: the writer joins the items with their separator
# itself, so a TSV row is short, but a structured cell is one item, and a write
# can hold a whole cell: structured verify --gmax 10 --pmax 60 --n 1 --n 3
# makes writes of up to 536,647 characters (ROADMAP item 10).
_WRITE_BLOCK = 1 << 15


def _emit(args, text, rows, header=None, array=False) -> None:
    """Write the JSON ``text()``, or the TSV ``header`` and ``rows()``, then a newline.

    Only the requested format is built: ``text`` and ``rows`` are thunks.
    ``text()`` gives the JSON document, or with ``array`` the JSON texts of
    an array's elements; ``rows()`` gives the TSV lines, and the header's
    fields are tab-joined.  Each item is written as it is made: a failure
    leaves the items before it, with no newline.
    """
    if args.format == "structured":
        _write_blocks(text(), *((", ", "[", "]") if array else ()))
    else:
        _write_blocks(chain(["\t".join(header)] if header else [], rows()), "\n")


def _write_blocks(items: Iterable[str], sep: str = "", head: str = "", tail: str = "") -> None:
    """Write ``head + sep.join(items) + tail`` and a newline to stdout, in blocks.

    Nothing else writes to stdout.  A block is written as soon as it holds
    ``_WRITE_BLOCK`` characters, before the next item is made.  If making an
    item fails, the text before it is still written, without ``tail`` or the
    newline.
    """
    step, lead, block, end = len(sep), head, [], ""
    size = len(head) - step  # len(lead + sep.join(block)), less one sep while block is empty
    try:
        if len(head) >= _WRITE_BLOCK:
            _write(head)
            lead, size = "", -step
        for item in items:
            block.append(item)
            size += len(item) + step
            if size >= _WRITE_BLOCK:
                _write(lead + sep.join(block))
                lead, block, size = "", [""], 0  # the next item's text starts with sep
        end = tail + "\n"
    finally:
        _write(lead + sep.join(block) + end)


def _write(text: str) -> None:
    """Write and flush ``text``, so all output is out before any stderr line."""
    if sys.stdout is None:  # descriptor 1 was closed at start
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:  # a stdout that fails is pointed at os.devnull, so the exit flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _check_digits(what: str, p: int, e: int) -> None:
    """Reject up front a run that would print ``p**e`` past Python's digit limit.

    Python converts no integer of more than ``sys.get_int_max_str_digits()``
    digits to text (0: no limit).  ``e * log10(p)`` decides unless it lies
    within one of the limit; then the exact comparison does.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    digits = e * log10(p)
    if limit and digits > limit - 1 and (digits > limit + 1 or p ** e >= 10 ** limit):
        raise ValueError(
            f"{what} = {p}**{e} has more than {limit} digits, "
            "the most Python converts to text (sys.get_int_max_str_digits)"
        )


def _specs_json(specs) -> str:
    """The JSON text of the list of ``{"sign", "t"}`` objects of ``specs``."""
    return "[" + ", ".join(f'{{"sign": {s.q_star_sign}, "t": {s.t}}}' for s in specs) + "]"


# Where a slot's text goes in a cell's text; no text made from data holds it.
_MARK = "\0"


def _cell_filler(report: ParityReport, fmt: str) -> Callable[[int, int], str]:
    """``fill(p, n)``: the text in ``fmt`` of cell (g, p, n) under ``report`` or its class.

    Built once per report from :func:`candidate_shapes`: the cell's JSON
    document, or its TSV candidate rows joined by newlines (odd powers of
    X are ``0``), made with a ``_MARK`` for p, for n and for each slot
    (e, c), a distinct nonzero coefficient c of Y**(g - e) = X**(2g - 2e)
    whose cell value is ``c * q**e``, and split on ``_MARK`` once; ``pick``,
    an ``itemgetter``, takes each placeholder's text from the slots' texts,
    then p's and n's.  ``fill`` converts each slot to decimal once and
    joins once.  Each shape is checked to have the degree g that the count
    reads from its factors' phi(2t) and a nonzero constant term, as a
    product of cyclotomic shapes has (else :class:`BrokenInvariant`).
    """
    from .enumerator import candidate_shapes
    from .errors import BrokenInvariant
    from .weil import q_powers

    g = report.params.g
    shapes = candidate_shapes(g, report.full_degree_specs)
    if not shapes or any(len(shape) != g + 1 or not shape[0] for shape, _ in shapes):
        raise BrokenInvariant("a candidate shape must be a polynomial of degree g in X**2 "
                              "with a nonzero constant")
    ys = [y for y, _ in shapes]  # c of Y**(g - e) at index g - e
    slots = tuple((g - i, c) for i, cs in enumerate(zip(*ys)) for c in dict.fromkeys(cs) if c)
    slot_of = [{} for _ in range(g + 1)]  # the k of c at index g - e
    for k, (e, c) in enumerate(slots):
        slot_of[g - e][c] = k
    text = [{**dict.fromkeys(ks, _MARK), 0: "0"} for ks in slot_of]  # the text of c
    factor_text = {  # the text of each distinct (spec, multiplicity) pair
        (s, m): f'{{"sign": {s.q_star_sign}, "t": {s.t}, "mult": {m}}}' if fmt == "structured"
        else f"{_SIGN_TEXT[s.q_star_sign]}:{s.t}:{m}"
        for s, m in set(chain.from_iterable(record for _, record in shapes))
    }
    assert _MARK not in "".join(factor_text.values())  # the only text made from data
    p_n = [len(slots), len(slots) + 1]  # the slots of p and n
    items, index = [], []
    for y, (_, record) in zip(ys, shapes):
        coeffs = map(dict.__getitem__, text, y)
        if fmt == "structured":
            items.append(f'{{"coeffs": [{", 0, ".join(coeffs)}], "even": true, '
                         f'"factors": [{", ".join(map(factor_text.__getitem__, record))}]}}')
        else:
            items.append(f"{g}\t{_MARK}\t{_MARK}\t{' 0 '.join(coeffs)}\ttrue\t"
                         f"{';'.join(map(factor_text.__getitem__, record))}")
            index += p_n
        index += compress(map(dict.get, slot_of, y), y)
    if fmt == "structured":
        cell = (f'{{"g": {g}, "p": {_MARK}, "n": {_MARK}, "total_candidates": '
                f'{report.total_candidates}, "odd_candidates": {report.odd_candidates}, '
                f'"candidates": [{", ".join(items)}], '
                f'"half_degree_specs": {_specs_json(report.half_degree_specs)}}}')
        index = p_n + index
    else:
        cell = "\n".join(items)
    pieces, pick = cell.split(_MARK), itemgetter(*index)

    def fill(p: int, n: int) -> str:
        powers = q_powers(p ** n, g)
        out = [None] * (2 * len(pieces) - 1)
        out[::2] = pieces
        out[1::2] = pick([str(c * powers[e]) for e, c in slots] + [str(p), str(n)])
        return "".join(out)

    return fill


def _bounds_json(r: BoundsReport) -> str:
    """The bound checks of report ``r``, as the text ``json.dumps`` writes for their document."""
    p, n, g = r.params
    per_k = zip(range(1, g + 1), r.a_values, r.archimedean_ok, r.valuation_ok)
    per_coefficient = ", ".join(
        f'{{"k": {k}, "a_k": {a_k}, "archimedean": {_BOOL_TEXT[arch]}, '
        f'"valuation": {_BOOL_TEXT[val]}}}' for k, a_k, arch, val in per_k
    )
    return (
        f'{{"g": {g}, "p": {p}, "n": {n}, "symmetric": {_BOOL_TEXT[r.symmetric_ok]}, '
        f'"lemma_a1": {_BOOL_TEXT[r.lemma_a1_ok]}, "per_coefficient": [{per_coefficient}]}}'
    )


def _cmd_cyclo(args) -> int:
    from .cyclotomic import cyclotomic_radical

    # Phi_n(X) = Phi_m(X**k): Phi_m's coefficients with k - 1 zeros between each two
    base, k = cyclotomic_radical(args.n)
    coeffs = list(map(str, base))
    _emit(
        args,
        lambda: [f'{{"n": {args.n}, "coeffs": [{(", " + "0, " * (k - 1)).join(coeffs)}]}}'],
        lambda: [(" " + "0 " * (k - 1)).join(coeffs)],
    )
    return 0


def _cmd_minpoly(args) -> int:
    from .cyclotomic import CYCLOTOMIC_CAP, totient
    from .errors import OutOfRange
    from .weil import WeilParams, minpoly_full_degree

    # g plays no role in the minimal polynomial; pin the smallest value.
    sign = 1 if args.sign == "+" else -1
    params = WeilParams(p=args.p, n=args.n, g=1)
    # The strictest case across signs: sign + and even t need Phi_2t, so
    # t is capped at half the cyclotomic cap for every sign and t alike.
    t_cap = CYCLOTOMIC_CAP // 2
    if args.t > t_cap:
        raise OutOfRange(f"t={args.t} exceeds the cap {t_cap} (2t <= {CYCLOTOMIC_CAP})")
    if args.t >= 1:  # else minpoly_full_degree rejects t
        _check_digits("the constant term", args.p, args.n * totient(2 * args.t))
    poly = minpoly_full_degree(params, sign, args.t)
    _emit(
        args,
        lambda: [f'{{"p": {args.p}, "n": {args.n}, "sign": {sign}, "t": {args.t}, '
                 f'"degree": {len(poly) - 1}, '
                 f'"coeffs": [{", ".join(map(str, poly))}]}}'],
        lambda: [" ".join(map(str, poly))],
    )
    return 0


def _cmd_enumerate(args) -> int:
    from .enumerator import verify_parity_theorem
    from .weil import WeilParams

    params = WeilParams(p=args.p, n=args.n, g=args.g)
    _check_digits("the constant term", args.p, args.n * args.g)
    report = verify_parity_theorem(params)

    def rows():  # after the header is out, a piece per row, so blocks stay _WRITE_BLOCK
        yield from _cell_filler(report, "tsv")(args.p, args.n).split("\n")

    _emit(args, lambda: [_cell_filler(report, "structured")(args.p, args.n)], rows,
          (*_CELL, "coeffs", "even", "factors"))
    if not report.contract_ok:
        print("parity contract violated: half-degree spec found although p > 2g+1",
              file=sys.stderr)
        return 1
    return 0


def _verify_cells(grid, n_values) -> Iterator[str]:
    """The JSON documents of a checked grid's cells, filled from one filler per g."""
    for r, primes in grid:
        fill = _cell_filler(r, "structured")
        for p in primes:
            for n in n_values:
                yield fill(p, n)


def _verify_rows(grid, n_values) -> Iterator[str]:
    """The TSV rows of a checked grid: ``g p n`` and a tail made once per g."""
    for r, primes in grid:
        g = r.params.g
        tail = (f"\t{r.total_candidates}\t{r.odd_candidates}\t{len(r.half_degree_specs)}\t"
                f"{_BOOL_TEXT[r.contract_ok]}")
        for p in primes:
            for n in n_values:
                yield f"{g}\t{p}\t{n}{tail}"


def _cmd_verify(args) -> int:
    from .enumerator import verify_grid

    grid = verify_grid(args.gmax, args.pmax, args.n)  # checks the grid, then one report per g
    if args.format == "structured":  # every g's primes end at the largest, grid[0][1][-1]
        _check_digits("the largest constant term", grid[0][1][-1], max(args.n) * args.gmax)
    _emit(
        args,
        lambda: _verify_cells(grid, args.n),
        lambda: _verify_rows(grid, args.n),
        (*_CELL, "total_candidates", "odd_candidates", "half_degree_specs", "ok"),
        array=True,
    )
    if not all(report.contract_ok for report, _ in grid):
        print("parity contract violated in at least one grid cell", file=sys.stderr)
        return 1
    return 0


def _cmd_detect_half(args) -> int:
    from .cyclotomic import totient
    from .enumerator import verify_parity_theorem
    from .weil import WeilParams

    params = WeilParams(p=args.p, n=args.n, g=args.g)
    report = verify_parity_theorem(params)
    specs = report.half_degree_specs  # builds no shape
    _emit(
        args,
        lambda: [f'{{"g": {params.g}, "p": {params.p}, "n": {params.n}, '
                 f'"half_degree_specs": {_specs_json(specs)}}}'],
        lambda: (f"{_SIGN_TEXT[s.q_star_sign]}\t{s.t}\t{totient(2 * s.t)}" for s in specs),
        ("sign", "t", "degree"),
    )
    if not report.contract_ok:
        print("half-degree spec found although p > 2g+1", file=sys.stderr)
        return 1
    return 0


# ``bounds`` keeps a run's made texts and ints for their repeats (each
# distinct line's item, token's int and a_k's text) while the kept keys and
# texts, and ``bounds._ENTRY_CHARS`` per entry, fit in this many characters.
_MEMO_BUDGET = 1 << 22


def _cmd_bounds(args) -> int:
    from .bounds import ingest_reference
    from .weil import WeilParams

    params = WeilParams(p=args.p, n=args.n, g=args.g)
    _check_digits("the constant term", args.p, args.n * args.g)  # before the file opens
    cell = f"{args.g}\t{args.p}\t{args.n}\t"
    render = (lambda r, text: _bounds_json(r)) if args.format == "structured" else lambda r, text: (
        f"{cell}{' '.join(map(text, r.a_values))}\t{_BOOL_TEXT[r.symmetric_ok]}\t"
        f"{_BOOL_TEXT[r.lemma_a1_ok]}\t{_BOOL_TEXT[all(r.archimedean_ok)]}\t"
        f"{_BOOL_TEXT[all(r.valuation_ok)]}")
    items = ingest_reference(args.file, params, render, _MEMO_BUDGET)
    _emit(args, lambda: items, lambda: items,
          (*_CELL, "a_values", "symmetric", "lemma_a1", "archimedean", "valuation"), array=True)
    return 0


# The command line, as one table that the parser and the help both read.
# A flag (or a positional argument) is (name, type, choices or None,
# repeats): a flag that repeats appends each value to a list, any other
# keeps its last value.  Every flag of a command is required; --format,
# accepted before or after the command, is the one optional flag.
_FORMAT = ("format", str, ("tsv", "structured"), False)
_CELL_FLAGS = tuple((name, int, None, False) for name in _CELL)
_COMMANDS = {  # name -> (function, summary, positional or None, flags)
    "cyclo": (_cmd_cyclo, "print a cyclotomic polynomial", ("n", int, None, False), ()),
    "minpoly": (_cmd_minpoly, "full-degree Weil number minimal polynomial", None, (
        ("p", int, None, False), ("n", int, None, False),
        ("sign", str, ("+", "-"), False), ("t", int, None, False),
    )),
    "enumerate": (_cmd_enumerate, "enumerate degree-2g candidates", None, _CELL_FLAGS),
    "verify": (_cmd_verify, "check the parity contract over a grid", None, (
        ("gmax", int, None, False), ("pmax", int, None, False), ("n", int, None, True),
    )),
    "detect-half": (_cmd_detect_half, "list half-degree specs fitting in 2g", None, _CELL_FLAGS),
    "bounds": (_cmd_bounds, "bound checks on a polynomial file", None,
               (*_CELL_FLAGS, ("file", str, None, False))),
}
# The top level is one more row, whose summary is its help text.  Its
# positional is the command: as argparse's subparsers do, it takes the
# token in its place even if that is "--", and the command it names reads
# every token after it.  The parser knows it by identity, not by a field.
_COMMAND = ("command", str, tuple(_COMMANDS), False)
_TOP = (None, (
    "Exact checks on supersingular Weil polynomial candidates.\n\ncommands:\n"
    + "\n".join(f"  {name:{max(map(len, _COMMANDS))}}  {row[1]}" for name, row in _COMMANDS.items())
    + "\n\n--format (default tsv) goes before or after the command; the last one given wins.\n"
    "A flag may be shortened to any prefix that names no other flag of its command.\n"
    "'weilparity COMMAND -h' lists the flags of a command."
), _COMMAND, ())
_HELP = ("help", None, None, False)


class _Stop(Exception):
    """Ends parsing with ``(code, text)``: help (0, for stdout) or a usage error (2, for stderr)."""


def _arg(spec) -> str:
    name, _, choices, _ = spec
    return "{" + ",".join(choices) + "}" if choices else name.upper()


def _usage(prog: str, row) -> str:
    """The usage line of ``row``, the table row that ``prog`` runs."""
    _, _, positional, flags = row
    words = [f"--{spec[0]} {_arg(spec)}" + (f" [--{spec[0]} ...]" if spec[3] else "")
             for spec in flags]
    words += [_arg(positional) + (" ..." if positional is _COMMAND else "")] if positional else []
    return f"usage: {prog} [-h] [--format {_arg(_FORMAT)}] {' '.join(words)}"


def _option(token: str, options: dict, usage: str):
    """How argparse reads ``token`` against ``options`` ({"--name": spec}, with -h and --help).

    None for a value; else (spec, option, explicit value or None), with
    spec None for an option that is not in ``options``.  A ``--`` prefix
    names the one option it starts (an exact name first), ``--name=value``
    carries its value, and ``-h`` takes the rest of its token as an
    explicit value.  A token that names no option is a value if it is
    ``-`` alone, reads as a negative number, or holds a space.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return options[token], token, None
    name, equals, explicit = token.partition("=")
    if equals and name in options:
        return options[name], name, explicit
    if token[1] == "-":
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            raise _Stop(2, _error(usage, f"ambiguous option: {name} could match "
                                         f"{', '.join(matches)}"))
        if matches:
            return options[matches[0]], matches[0], explicit if equals else None
    elif token[:2] in options:
        return options[token[:2]], token[:2], token[2:]
    import re

    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, token, None


def _error(usage: str, message: str) -> str:
    return f"{usage}\nweilparity: error: {message}"


def _read(tokens: list[str], prog: str, row, values: dict, strays: list) -> None:
    """Read ``tokens`` into ``values`` against ``row``: ``_TOP``, or the command ``prog`` runs.

    As argparse does: every token before the first ``--`` is classified
    first (an ambiguous prefix is an error before anything else), then
    the tokens are read in order.  Help stops at once, and so does a bad
    or missing flag value.  Unknown options and tokens left over go to
    ``strays``.  The top level's positional, the command, ends the read:
    the command's row reads the tokens after it.  At the end, a
    flag or positional not read is an error.
    """
    _, summary, positional, flags = row
    usage = _usage(prog, row)
    options = {"-h": _HELP, "--help": _HELP, **{f"--{spec[0]}": spec for spec in (_FORMAT, *flags)}}
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token, options, usage) for token in tokens[:cut]]
    kinds += [None] * (len(tokens) - cut)  # after "--", every token is a value
    wanted = positional  # until it is read
    i = 0
    while i < len(tokens):
        kind = kinds[i]
        if kind is None or i == cut:  # a value, or the first "--"
            if wanted is None:
                strays.append(tokens[i])
                i += 1
                continue
            name, rest = wanted[0], wanted is _COMMAND
            if i == cut and not rest:  # one value, with the "--" before or after it
                i += 1
                if i == len(tokens):
                    strays.append("--")
                    break
            values[name] = value = _value(wanted, tokens[i], usage, name)
            if rest:
                return _read(tokens[i + 1:], f"{prog} {value}", _COMMANDS[value], values, strays)
            wanted = None
            i += 2 if i + 1 == cut else 1
            continue
        spec, option, explicit = kind
        if spec is None:
            strays.append(tokens[i])
        elif spec is _HELP:
            # -hh... is -h repeated; any other explicit value is an error
            if explicit is None or (option == "-h" and explicit and not explicit.strip("h")):
                raise _Stop(0, f"{usage}\n\n{summary}")
            raise _Stop(2, _error(usage, f"argument -h/--help: ignored explicit argument "
                                         f"{explicit!r}"))
        else:
            if explicit is None:  # the value is the next token
                i += 1
                if i < len(tokens) and i != cut and (i > cut or kinds[i] is None):
                    explicit = tokens[i]
            if explicit in (None, "--"):  # argparse stored [] for --flag=--
                raise _Stop(2, _error(usage, f"argument {option}: expected one argument"))
            name, _, _, repeats = spec
            value = _value(spec, explicit, usage, option)
            if repeats:
                values.setdefault(name, []).append(value)
            else:
                values[name] = value
        i += 1
    missing = [f"--{spec[0]}" for spec in flags if spec[0] not in values]
    missing += [positional[0]] if wanted else []
    if missing:
        raise _Stop(2, _error(usage, "the following arguments are required: " + ", ".join(missing)))


def _value(spec, text: str, usage: str, where: str):
    """``text`` converted to ``spec``'s type and checked against its choices."""
    _, kind, choices, _ = spec
    try:
        value = kind(text)
    except ValueError:
        raise _Stop(2, _error(usage, f"argument {where}: invalid {kind.__name__} value: "
                                     f"{text!r}")) from None
    if choices and value not in choices:
        raise _Stop(2, _error(usage, f"argument {where}: invalid choice: {value!r} "
                                     f"(choose from {', '.join(map(repr, choices))})"))
    return value


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and flag values of ``argv``, read from the table as argparse read them.

    Raises :class:`_Stop` for help and for usage errors.
    """
    values, strays = {"format": "tsv"}, []
    _read(argv, "weilparity", _TOP, values, strays)
    if strays:
        raise _Stop(2, _error(_usage("weilparity", _TOP),
                              f"unrecognized arguments: {' '.join(strays)}"))
    return SimpleNamespace(**values)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else list(argv))
        except _Stop as stop:
            code, text = stop.args
            if code:  # a usage error
                print(text, file=sys.stderr)
                return code
            _write_blocks([text])  # help, written as output is
            return 0
        return _COMMANDS[args.command][0](args)
    except BrokenPipeError:  # stdout was closed early, as by "| head"
        return 141  # 128 + SIGPIPE, as a shell reports a tool that SIGPIPE ends
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # imported here, off the start-up path

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
