#!/usr/bin/env python3
"""centaur-lint: determinism & unit-hygiene static analysis for centaur-sim.

The simulator's load-bearing invariants are social contracts the
compiler cannot see: byte-identical JSON at any --jobs count, integral
picosecond Ticks coexisting with unit-suffixed floating-point fields,
and a Python CI gate (tools/check_bench.py) that must know every metric
key the C++ writers emit. This tool enforces them at review time with
a dependency-free tokenizer + lightweight AST over src/, bench/,
tests/ and examples/.

Rules (see src/sim/lint.hh for the in-tree documentation):

  determinism         ambient entropy/wall-clock sources (std::rand,
                      std::random_device, std::chrono::*_clock, time(),
                      <random>/<chrono>/<ctime> includes) outside
                      src/sim/random.*
  ordered-emission    declaration of or iteration over
                      std::unordered_map / std::unordered_set; their
                      iteration order is unspecified and must never
                      reach JSON/report/stats emission
  unit-suffix         time/energy/power-valued double fields, params
                      and locals, and emitted JSON keys, must carry a
                      unit suffix (Us, Ns, Ticks, Joules, ..., _us);
                      Tick-typed names must not claim a different unit;
                      plain assignments between differently-suffixed
                      identifiers (xUs = yTicks) are errors
  parallel-reduction  accumulation (+=, ++, push_back, ...) onto
                      captured state inside a SuiteContext::parallelFor
                      body that is not indexed by the loop variable
  schema-sync         every metric key the sim/json writers emit in
                      bench/suites/*, src/core/report.cc,
                      src/cachetier/*, src/cluster/* and
                      src/ctrlplane/* must appear
                      in check_bench.py's
                      key tables, and every key the Python gate names
                      must still exist in the C++ tree
  header-hygiene      include guards present, matching the
                      CENTAUR_<PATH>_HH convention; no `using
                      namespace` in headers
  event-capture       a std::function-typed variable passed to an
                      event-queue schedule()/scheduleIn() call: each
                      schedule re-boxes the closure (one arena copy
                      per event); hot paths must pass a captureless
                      trampoline + context pointer instead

Suppression: a finding is silenced by a pragma comment

    some_code();  // centaur-lint: allow(rule-name)

on the same line, or on a line of its own immediately above (Python
files use `#` instead of `//`). Pragmas should state *why* next to the
allow; the linter does not parse the justification but reviewers do.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import ast
import json
import os
import re
import sys

SCAN_ROOTS = ["src", "bench", "tests", "examples"]
FIXTURE_DIR = os.path.join("tests", "lint", "fixtures")
CHECK_BENCH = os.path.join("tools", "check_bench.py")

RULES = {
    "determinism": "ambient entropy / wall-clock source",
    "ordered-emission": "unordered container ordering hazard",
    "unit-suffix": "unit-suffix hygiene",
    "parallel-reduction": "unsafe accumulation in parallelFor body",
    "schema-sync": "C++ metric keys vs check_bench.py tables",
    "header-hygiene": "include guards / using-namespace in headers",
    "event-capture": "std::function re-boxed per schedule() call",
}

# ---------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<num>\.?[0-9](?:[eEpP][+-]|[0-9a-zA-Z_.'])*)
    | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct><<=|>>=|::|->|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|
                <<|>>|<=|>=|==|!=|&&|\|\||.)
    """,
    re.DOTALL | re.VERBOSE,
)


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


def strip_preprocessor(text):
    """Blank out preprocessor logical lines; return (code, directives)
    where directives is a list of (lineno, directive_text)."""
    lines = text.split("\n")
    directives = []
    out = list(lines)
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            start = i
            logical = lines[i]
            while logical.rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                logical = logical.rstrip()[:-1] + " " + lines[i]
                out[i] = ""
            out[start] = ""
            directives.append((start + 1, logical.strip()))
        i += 1
    return "\n".join(out), directives


def lex(code):
    """Tokenize C++-ish code (comments dropped, line numbers kept)."""
    toks = []
    line = 1
    for m in TOKEN_RE.finditer(code):
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Tok(kind, text, line))
        line += text.count("\n")
    return toks


# ---------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------

PRAGMA_RE = re.compile(r"centaur-lint:\s*allow\(([^)]*)\)")


def collect_pragmas(raw_lines):
    """Map line number -> set of allowed rule names. A pragma in a
    trailing comment covers its own line; a pragma in a comment-only
    line covers the next line. Justification text may precede the
    marker inside the comment."""
    allowed = {}
    for i, line in enumerate(raw_lines, start=1):
        m = PRAGMA_RE.search(line)
        if not m:
            continue
        cpos = line.rfind("//", 0, m.start())
        if cpos < 0:
            cpos = line.rfind("#", 0, m.start())
        if cpos < 0:
            cpos = line.rfind("*", 0, m.start())  # block comments
        if cpos < 0:
            continue  # not inside a recognizable comment
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        code_before = line[:cpos].strip()
        target = i if code_before else i + 1
        allowed.setdefault(target, set()).update(rules)
    return allowed


class Ctx:
    """One lint run: findings plus per-file pragma state."""

    def __init__(self):
        self.findings = []

    def report(self, rel, line, rule, msg, pragmas):
        if rule in pragmas.get(line, ()):  # suppressed
            return
        self.findings.append(
            {"file": rel, "line": line, "rule": rule, "message": msg})


# ---------------------------------------------------------------------
# Unit vocabulary
# ---------------------------------------------------------------------

# Recognized unit suffixes (camelCase and snake_case spellings) and
# their canonical names. Order matters: longest match wins.
UNIT_SUFFIXES = [
    ("Ticks", "ticks"), ("_ticks", "ticks"),
    ("Cycles", "cycles"), ("_cycles", "cycles"),
    ("Joules", "joules"), ("_joules", "joules"),
    ("Watts", "watts"), ("_watts", "watts"),
    ("Bytes", "bytes"), ("_bytes", "bytes"),
    ("Secs", "sec"), ("_secs", "sec"),
    ("Sec", "sec"), ("_sec", "sec"),
    ("GBps", "gbps"), ("Gbps", "gbps"), ("_gbps", "gbps"),
    ("Rps", "rps"), ("_rps", "rps"),
    ("GHz", "hz"), ("MHz", "hz"), ("Hz", "hz"), ("_hz", "hz"),
    ("KiB", "kib"), ("_kib", "kib"),
    ("MiB", "mib"), ("_mib", "mib"),
    ("GiB", "gib"), ("_gib", "gib"),
    ("Us", "us"), ("_us", "us"),
    ("Ns", "ns"), ("_ns", "ns"),
    ("Ms", "ms"), ("_ms", "ms"),
    # Tick is defined as one picosecond (sim/units.hh), so a Ps
    # suffix names the same unit as Ticks.
    ("Ps", "ticks"), ("_ps", "ticks"),
]

TIME_UNITS = {"us", "ns", "ms", "sec", "ticks", "cycles"}
ENERGY_UNITS = {"joules"}
POWER_UNITS = {"watts"}

# Words that mark a name/key as carrying a time/energy/power value.
TIME_WORDS = {"latency", "wait", "busy", "time", "timeout", "window",
              "delay", "duration", "period", "interval", "elapsed",
              "sla", "deadline"}
ENERGY_WORDS = {"energy"}
POWER_WORDS = {"power"}

# A trailing count/ratio word exempts the name: it is not a quantity
# in the unit's dimension (latency_overflow is a sample count).
COUNT_WORDS = {"count", "counts", "overflow", "depth", "rate", "rates",
               "samples", "events", "reqs", "requests", "n", "num",
               "factor", "limit", "cap", "share", "frac", "fraction",
               "pct", "ratio", "checks", "entries", "id", "index",
               "records"}

# Dimensionless by construction: a normalized/relative quantity has
# had its unit divided out.
DIMENSIONLESS_WORDS = {"normalized", "relative"}

WORD_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def words_of(name):
    return [w.lower() for w in WORD_RE.findall(name)]


def unit_of(name):
    """Canonical unit named by a trailing suffix, or None."""
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return unit
    return None


def is_ratio_name(name):
    return "per" in words_of(name)


def required_units(name_words):
    """(unit class, preferred example) a name demands, or None."""
    ws = set(name_words)
    if name_words and name_words[-1] in COUNT_WORDS:
        return None
    if ws & DIMENSIONLESS_WORDS:
        return None
    if ws & ENERGY_WORDS:
        return (ENERGY_UNITS, "Joules")
    if ws & POWER_WORDS:
        return (POWER_UNITS, "Watts")
    if ws & TIME_WORDS:
        return (TIME_UNITS, "Us")
    return None


# ---------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------

BANNED_IDS = {
    "srand", "rand_r", "drand48", "lrand48", "mrand48",
    "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "default_random_engine", "system_clock", "steady_clock",
    "high_resolution_clock", "gettimeofday", "clock_gettime",
}
BANNED_INCLUDES = {"<random>", "<chrono>", "<ctime>"}


def rule_determinism(ctx, rel, toks, directives, pragmas):
    if re.search(r"(^|/)sim/random\.(cc|hh)$", rel):
        return
    for lineno, d in directives:
        m = re.match(r"#\s*include\s*(<[^>]+>)", d)
        if m and m.group(1) in BANNED_INCLUDES:
            ctx.report(rel, lineno, "determinism",
                       f"include of {m.group(1)}: ambient clocks and "
                       "engines break run-to-run reproducibility; use "
                       "sim/random.hh (Rng) and simulated Ticks",
                       pragmas)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        prev = toks[i - 1].text if i else ""
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        if prev in (".", "->"):
            continue  # member access: SigmoidUnit::time() etc.
        if t.text in BANNED_IDS:
            ctx.report(rel, t.line, "determinism",
                       f"'{t.text}' is a nondeterministic/wall-clock "
                       "source; seed a centaur::Rng or use simulated "
                       "Ticks instead", pragmas)
        elif t.text in ("rand", "random") and nxt == "(":
            ctx.report(rel, t.line, "determinism",
                       f"'{t.text}()' draws from ambient global state; "
                       "use centaur::Rng (sim/random.hh)", pragmas)
        elif t.text == "time" and nxt == "(":
            arg = toks[i + 2].text if i + 2 < len(toks) else ""
            if prev == "::" or arg in ("nullptr", "NULL", "0", "&", ")"):
                ctx.report(rel, t.line, "determinism",
                           "'time()' reads the wall clock; simulation "
                           "time is the EventQueue's Tick domain",
                           pragmas)
        elif t.text == "clock" and nxt == "(" and \
                i + 2 < len(toks) and toks[i + 2].text == ")":
            ctx.report(rel, t.line, "determinism",
                       "'clock()' reads process CPU time; use "
                       "simulated Ticks", pragmas)


# ---------------------------------------------------------------------
# Rule: ordered-emission
# ---------------------------------------------------------------------

UNORDERED_TYPES = {"unordered_map", "unordered_set",
                   "unordered_multimap", "unordered_multiset"}


def skip_template_args(toks, i):
    """toks[i] == '<': index just past the matching '>'."""
    depth = 0
    while i < len(toks):
        if toks[i].text == "<":
            depth += 1
        elif toks[i].text in (">", ">>"):
            depth -= 2 if toks[i].text == ">>" else 1
            if depth <= 0:
                return i + 1
        elif toks[i].text == ";":
            return i  # malformed; bail
        i += 1
    return i


def rule_ordered_emission(ctx, rel, toks, directives, pragmas):
    unordered_names = set()
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in UNORDERED_TYPES:
            continue
        j = i + 1
        if j < len(toks) and toks[j].text == "<":
            j = skip_template_args(toks, j)
        if j < len(toks) and toks[j].kind == "id" and \
                j + 1 < len(toks) and \
                toks[j + 1].text in (";", "=", ",", ")", "{"):
            name = toks[j].text
            unordered_names.add(name)
            ctx.report(rel, t.line, "ordered-emission",
                       f"'{name}' is an unordered container: its "
                       "iteration order is unspecified and must never "
                       "reach JSON/report/stats emission; use an "
                       "ordered container, or annotate "
                       "allow(ordered-emission) with the reason it is "
                       "provably order-independent", pragmas)
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "for" and \
                i + 1 < len(toks) and toks[i + 1].text == "(":
            depth = 0
            header = []
            j = i + 1
            while j < len(toks):
                if toks[j].text == "(":
                    depth += 1
                elif toks[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                header.append(toks[j])
                j += 1
            texts = [h.text for h in header]
            if ":" in texts:
                range_part = texts[texts.index(":"):]
                hit = (set(range_part) & unordered_names) or \
                      (set(range_part) & UNORDERED_TYPES)
                if hit:
                    ctx.report(rel, t.line, "ordered-emission",
                               "range-for over unordered container "
                               f"'{sorted(hit)[0]}': iteration order "
                               "is unspecified; sort or restructure "
                               "before anything observable depends on "
                               "it", pragmas)
        if t.kind == "id" and t.text in unordered_names and \
                i + 2 < len(toks) and toks[i + 1].text in (".", "->") \
                and toks[i + 2].text in ("begin", "cbegin", "rbegin"):
            ctx.report(rel, t.line, "ordered-emission",
                       f"iterator walk of unordered container "
                       f"'{t.text}': iteration order is unspecified",
                       pragmas)


# ---------------------------------------------------------------------
# Rule: unit-suffix
# ---------------------------------------------------------------------

FLOAT_TYPES = {"double", "float"}
TICK_TYPES = {"Tick", "Cycles"}
DECL_STOPPERS = {"=", ";", ",", ")", "{"}


def iter_declarations(toks):
    """Yield (type_text, name_tok) for simple declarations
    `double x`, `const Tick &y = ...`, including parameter lists.
    Function declarations (name followed by '(') are skipped."""
    for i, t in enumerate(toks):
        if t.kind != "id" or \
                t.text not in FLOAT_TYPES | TICK_TYPES:
            continue
        prev = toks[i - 1].text if i else ""
        if prev in ("::", "<", ".", "->"):
            continue  # qualified name or template argument
        j = i + 1
        while j < len(toks) and toks[j].text in ("const", "&", "*"):
            j += 1
        if j >= len(toks) or toks[j].kind != "id":
            continue
        name_tok = toks[j]
        after = toks[j + 1].text if j + 1 < len(toks) else ""
        if after not in DECL_STOPPERS:
            continue  # function name, cast, etc.
        yield t.text, name_tok


ASSIGN_OPS = {"=", "+=", "-="}
RHS_SIMPLE = {"+", "-", "::", ".", "->"}


def rule_unit_suffix(ctx, rel, toks, directives, pragmas):
    # (a) float declarations with unit-valued vocabulary but no suffix;
    # (b) Tick/Cycles declarations claiming a foreign unit.
    for type_text, name_tok in iter_declarations(toks):
        name = name_tok.text
        unit = unit_of(name)
        if is_ratio_name(name):
            continue
        if type_text in FLOAT_TYPES:
            need = required_units(words_of(name))
            if need is None:
                continue
            units, example = need
            if unit is None:
                ctx.report(rel, name_tok.line, "unit-suffix",
                           f"{type_text} '{name}' carries a "
                           "time/energy/power value but no unit "
                           "suffix; name the unit (e.g. "
                           f"'{name}{example}' / "
                           f"'{name}_{example.lower()}')", pragmas)
            elif unit not in units:
                ctx.report(rel, name_tok.line, "unit-suffix",
                           f"{type_text} '{name}': suffix '{unit}' "
                           "does not match the quantity its name "
                           f"implies ({'/'.join(sorted(units))})",
                           pragmas)
        else:  # Tick / Cycles
            native = "ticks" if type_text == "Tick" else "cycles"
            if unit is not None and unit != native:
                ctx.report(rel, name_tok.line, "unit-suffix",
                           f"{type_text}-typed '{name}' claims unit "
                           f"'{unit}' but {type_text} is integral "
                           f"{'picoseconds' if native == 'ticks' else 'clock edges'};"
                           f" drop or fix the suffix", pragmas)

    # (c) plain assignments between differently-suffixed identifiers.
    for i, t in enumerate(toks):
        if t.text not in ASSIGN_OPS or t.kind != "punct":
            continue
        if i == 0 or toks[i - 1].kind != "id":
            continue
        lhs_name = toks[i - 1].text
        lhs_unit = unit_of(lhs_name)
        if lhs_unit is None or is_ratio_name(lhs_name):
            continue
        # RHS must be a conversion-free identifier expression.
        j = i + 1
        rhs = []
        simple = True
        while j < len(toks) and toks[j].text not in (";", ",", ")"):
            tok = toks[j]
            if tok.kind == "id":
                rhs.append(tok)
            elif tok.kind == "num" or tok.text in RHS_SIMPLE:
                pass
            else:
                simple = False
                break
            j += 1
        if not simple:
            continue
        for r in rhs:
            runit = unit_of(r.text)
            if runit is None or is_ratio_name(r.text):
                continue
            if runit != lhs_unit:
                ctx.report(rel, t.line, "unit-suffix",
                           f"assignment mixes units: '{lhs_name}' "
                           f"({lhs_unit}) from '{r.text}' ({runit}) "
                           "without an explicit conversion "
                           "(usFromTicks & friends)", pragmas)

    # (d) emitted JSON keys: ["..."] = with unit-valued vocabulary
    # must end in a unit suffix.
    for i, t in enumerate(toks):
        if t.kind != "str" or i == 0 or i + 2 >= len(toks):
            continue
        if toks[i - 1].text != "[" or toks[i + 1].text != "]" or \
                toks[i + 2].text != "=":
            continue
        key = t.text[1:-1]
        if not re.fullmatch(r"[a-z0-9_]+", key):
            continue
        kwords = key.split("_")
        if is_ratio_name(key):
            continue
        need = required_units(kwords)
        if need is None:
            continue
        if unit_of(key) is None:
            ctx.report(rel, t.line, "unit-suffix",
                       f"JSON key \"{key}\" carries a "
                       "time/energy/power value but no unit suffix "
                       "(_us, _ticks, _joules, ...); unsuffixed keys "
                       "make reports ambiguous", pragmas)
        elif unit_of(key) not in need[0]:
            ctx.report(rel, t.line, "unit-suffix",
                       f"JSON key \"{key}\": suffix does not match "
                       "the quantity its name implies", pragmas)


# ---------------------------------------------------------------------
# Rule: parallel-reduction
# ---------------------------------------------------------------------

ACCUM_OPS = {"+=", "-=", "*=", "/=", "++", "--"}
ACCUM_CALLS = {"push_back", "push", "emplace_back", "insert",
               "append"}


def find_matching(toks, i, open_t, close_t):
    depth = 0
    while i < len(toks):
        if toks[i].text == open_t:
            depth += 1
        elif toks[i].text == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def declared_in(body, name, before):
    """Heuristic: `Type name =`, `Type &name =`, `auto name =` or a
    for-header declaration occurring in body[:before]."""
    for k in range(min(before, len(body))):
        if body[k].kind != "id" or body[k].text != name or k == 0:
            continue
        prev = body[k - 1]
        nxt = body[k + 1].text if k + 1 < len(body) else ""
        if (prev.kind == "id" or prev.text in ("&", "*")) and \
                nxt in ("=", ";", "{", ":"):
            return True
    return False


def statement_start(body, i):
    while i > 0 and body[i - 1].text not in (";", "{", "}"):
        i -= 1
    return i


def rule_parallel_reduction(ctx, rel, toks, directives, pragmas):
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "parallelFor":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        call_end = find_matching(toks, i + 1, "(", ")")
        # locate the lambda inside the call
        j = i + 1
        while j < call_end and toks[j].text != "[":
            j += 1
        if j >= call_end:
            continue
        j = find_matching(toks, j, "[", "]") + 1
        index_name = None
        if j < call_end and toks[j].text == "(":
            params_end = find_matching(toks, j, "(", ")")
            ids = [p.text for p in toks[j:params_end] if p.kind == "id"]
            index_name = ids[-1] if ids else None
            j = params_end + 1
        while j < call_end and toks[j].text != "{":
            j += 1
        if j >= call_end:
            continue
        body_end = find_matching(toks, j, "{", "}")
        body = toks[j + 1:body_end]

        for k, b in enumerate(body):
            hit_line = None
            base = None
            if b.text in ACCUM_OPS and b.kind == "punct":
                s = statement_start(body, k)
                lhs = body[s:k] if body[s:k] else \
                    body[k + 1:k + 2]  # prefix ++x
                if not lhs:
                    continue
                texts = [x.text for x in lhs]
                if index_name and index_name in texts:
                    continue  # indexed slot: per-point output
                ids = [x for x in lhs if x.kind == "id"]
                if not ids:
                    continue
                base = ids[0].text
                hit_line = b.line
                what = f"'{' '.join(texts)} {b.text}'"
            elif b.kind == "id" and b.text in ACCUM_CALLS and \
                    k >= 2 and body[k - 1].text in (".", "->"):
                s = statement_start(body, k)
                chain = body[s:k - 1]
                texts = [x.text for x in chain]
                if index_name and index_name in texts:
                    continue
                ids = [x for x in chain if x.kind == "id"]
                if not ids:
                    continue
                base = ids[0].text
                hit_line = b.line
                what = f"'{'.'.join(texts)}.{b.text}(...)'"
            if hit_line is None or base == index_name:
                continue
            if declared_in(body, base, k):
                continue  # local to this iteration
            ctx.report(rel, hit_line, "parallel-reduction",
                       f"{what} mutates captured state inside a "
                       "parallelFor body without indexing by the "
                       "loop variable: racy, and float reduction "
                       "order breaks --jobs byte-identity; collect "
                       "per-index results and reduce sequentially "
                       "after the join", pragmas)


# ---------------------------------------------------------------------
# Rule: header-hygiene
# ---------------------------------------------------------------------

def expected_guard(rel):
    p = rel
    if p.startswith("src/"):
        p = p[len("src/"):]
    return "CENTAUR_" + re.sub(r"[/.]", "_", p).upper()


def rule_header_hygiene(ctx, rel, toks, directives, pragmas):
    if not rel.endswith(".hh"):
        return
    guard = expected_guard(rel)
    ifndef = [d for d in directives
              if d[1].startswith("#ifndef")]
    defines = [d for d in directives if d[1].startswith("#define")]
    endifs = [d for d in directives if d[1].startswith("#endif")]
    ok = False
    if ifndef and defines and endifs:
        first_line, first = ifndef[0]
        name = first.split()[1] if len(first.split()) > 1 else ""
        def_names = [d[1].split()[1] for d in defines
                     if len(d[1].split()) > 1]
        if name == guard and guard in def_names:
            ok = True
        elif name and name in def_names:
            ctx.report(rel, first_line, "header-hygiene",
                       f"include guard '{name}' does not follow the "
                       f"convention; expected '{guard}'", pragmas)
            ok = True  # guarded, just misnamed: one finding is enough
    if not ok and not any(d[1].startswith("#pragma once")
                          for d in directives):
        ctx.report(rel, 1, "header-hygiene",
                   f"missing include guard (#ifndef {guard} / "
                   f"#define {guard} / #endif)", pragmas)
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "using" and \
                i + 1 < len(toks) and toks[i + 1].text == "namespace":
            ctx.report(rel, t.line, "header-hygiene",
                       "'using namespace' in a header leaks into "
                       "every includer; qualify names instead",
                       pragmas)


# ---------------------------------------------------------------------
# Rule: event-capture
# ---------------------------------------------------------------------

# The kernel itself boxes callables by design; everything else that
# schedules a std::function by name on the hot path gets flagged.
EVENT_CAPTURE_EXEMPT = (
    os.path.join("src", "sim", "event_queue.hh"),
    os.path.join("src", "sim", "event_queue.cc"),
)


def rule_event_capture(ctx, rel, toks, directives, pragmas):
    """A std::function variable handed to schedule()/scheduleIn()
    re-boxes its closure into the queue's arena on every call - the
    exact per-event copy the POD fn+ctx representation exists to
    avoid. Engines re-firing a long-lived round body must pass a
    captureless trampoline plus a context pointer (see
    core/node_scheduler.cc's NodeScheduler::fire); passing a lambda
    directly is fine because it boxes once at the call site by
    construction."""
    if rel in EVENT_CAPTURE_EXEMPT:
        return
    fn_vars = set()
    for i, t in enumerate(toks):
        if t.text != "function" or i < 2 or \
                toks[i - 1].text != "::" or toks[i - 2].text != "std":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "<":
            continue
        close = find_matching(toks, i + 1, "<", ">")
        if close + 1 < len(toks) and toks[close + 1].kind == "id":
            fn_vars.add(toks[close + 1].text)
    if not fn_vars:
        return
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in ("schedule", "scheduleIn"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        end = find_matching(toks, i + 1, "(", ")")
        for a in toks[i + 2:end]:
            if a.kind == "id" and a.text in fn_vars:
                ctx.report(rel, a.line, "event-capture",
                           f"std::function '{a.text}' passed to "
                           f"{t.text}(): the closure is re-boxed on "
                           "every call; schedule a captureless "
                           "trampoline + context pointer for "
                           "re-fired round bodies", pragmas)


# ---------------------------------------------------------------------
# Rule: schema-sync (cross-file)
# ---------------------------------------------------------------------

METRIC_KEY_RE = re.compile(
    r".*(_us|_ns|_ticks|_joules|_watts|_rps|_gbps|_per_sec|"
    r"_per_joule)$|.*(speedup|improvement).*")

PY_KEY_TABLES = ["POSITIVE_KEYS", "HIGHER_IS_WORSE", "LOWER_IS_WORSE",
                 "NEUTRAL_KEYS"]


def is_emission_file(rel):
    return rel.startswith("bench/suites/") or \
        rel.startswith("src/cachetier/") or \
        rel.startswith("src/cluster/") or \
        rel.startswith("src/ctrlplane/") or \
        rel.endswith("core/report.cc")


def collect_emitted_keys(toks):
    """JSON keys assigned via the sim/json writer: ["key"] = ..."""
    keys = []
    for i, t in enumerate(toks):
        if t.kind != "str" or i == 0 or i + 2 >= len(toks):
            continue
        if toks[i - 1].text == "[" and toks[i + 1].text == "]" and \
                toks[i + 2].text == "=":
            keys.append((t.text[1:-1], t.line))
    return keys


def load_py_key_tables(root):
    """Parse check_bench.py's key tables without importing it.
    Returns (tables: name -> {key: lineno}, path)."""
    path = os.path.join(root, CHECK_BENCH)
    tables = {name: {} for name in PY_KEY_TABLES}
    try:
        with open(path, "r", encoding="utf-8") as f:
            tree = ast.parse(f.read())
    except (OSError, SyntaxError):
        return tables, path
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and \
                    target.id in tables and \
                    isinstance(node.value, ast.Set):
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and \
                            isinstance(elt.value, str):
                        tables[target.id][elt.value] = elt.lineno
    return tables, path


def rule_schema_sync(ctx, root, files, per_file_toks, fixture_mode):
    tables, py_path = load_py_key_tables(root)
    known = set()
    for t in tables.values():
        known.update(t)
    py_rel = os.path.relpath(py_path, root)
    try:
        with open(py_path, "r", encoding="utf-8") as f:
            py_pragmas = collect_pragmas(f.read().split("\n"))
    except OSError:
        py_pragmas = {}

    all_cpp_strings = set()
    for rel in files:
        toks, _, pragmas = per_file_toks[rel]
        for t in toks:
            if t.kind == "str":
                all_cpp_strings.add(t.text[1:-1])
        if not (is_emission_file(rel) or fixture_mode):
            continue
        for key, line in collect_emitted_keys(toks):
            if not METRIC_KEY_RE.fullmatch(key):
                continue
            if key not in known:
                ctx.report(rel, line, "schema-sync",
                           f"metric key \"{key}\" is emitted but "
                           "unknown to tools/check_bench.py; add it "
                           "to POSITIVE_KEYS / HIGHER_IS_WORSE / "
                           "LOWER_IS_WORSE / NEUTRAL_KEYS so the CI "
                           "gate classifies it", pragmas)
    if fixture_mode:
        return
    for table, keys in tables.items():
        for key, line in sorted(keys.items()):
            if key not in all_cpp_strings:
                ctx.report(py_rel, line, "schema-sync",
                           f"{table} names \"{key}\" but no C++ "
                           "source emits or mentions it; stale gate "
                           "entries hide drift", py_pragmas)


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

PER_FILE_RULES = [
    rule_determinism,
    rule_ordered_emission,
    rule_unit_suffix,
    rule_parallel_reduction,
    rule_header_hygiene,
    rule_event_capture,
]


def gather_files(root):
    files = []
    fixdir = os.path.join(root, FIXTURE_DIR)
    for sub in SCAN_ROOTS:
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            if os.path.abspath(dirpath).startswith(
                    os.path.abspath(fixdir)):
                continue
            for fn in sorted(filenames):
                if fn.endswith((".cc", ".hh")):
                    files.append(os.path.relpath(
                        os.path.join(dirpath, fn), root))
    return sorted(files)


def lint_files(root, files, fixture_mode=False):
    ctx = Ctx()
    per_file = {}
    for rel in files:
        try:
            with open(os.path.join(root, rel), "r",
                      encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            print(f"centaur-lint: cannot read {rel}: {exc}",
                  file=sys.stderr)
            sys.exit(2)
        pragmas = collect_pragmas(text.split("\n"))
        code, directives = strip_preprocessor(text)
        toks = lex(code)
        per_file[rel] = (toks, directives, pragmas)
    for rel in files:
        toks, directives, pragmas = per_file[rel]
        for rule in PER_FILE_RULES:
            rule(ctx, rel, toks, directives, pragmas)
    rule_schema_sync(ctx, root, files, per_file, fixture_mode)
    ctx.findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))
    return ctx.findings


def print_findings(findings, as_json, nfiles):
    if as_json:
        print(json.dumps({"findings": findings,
                          "count": len(findings)}, indent=2))
        return
    for f in findings:
        print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
    status = "FAIL" if findings else "OK"
    print(f"centaur-lint: {status} ({nfiles} files, "
          f"{len(findings)} findings)")


def self_check(root, as_json):
    """Every bad_* fixture must trip its rule, the clean fixture must
    not, and the tree at HEAD must be clean."""
    fixdir = os.path.join(root, FIXTURE_DIR)
    failures = []
    if not os.path.isdir(fixdir):
        failures.append(f"missing fixture directory {FIXTURE_DIR}")
        fixture_files = []
    else:
        fixture_files = sorted(
            fn for fn in os.listdir(fixdir)
            if fn.endswith((".cc", ".hh")))
    seen_rules = set()
    for fn in fixture_files:
        rel = os.path.join(FIXTURE_DIR, fn)
        findings = lint_files(root, [rel], fixture_mode=True)
        stem = os.path.splitext(fn)[0]
        if stem.startswith("bad_"):
            rule = stem[len("bad_"):].replace("_", "-")
            seen_rules.add(rule)
            hits = [f for f in findings if f["rule"] == rule]
            if hits:
                print(f"self-check: {rel}: rule '{rule}' fired "
                      f"{len(hits)}x  [ok]")
            else:
                failures.append(
                    f"{rel}: expected rule '{rule}' to fire, got "
                    f"{[f['rule'] for f in findings]}")
        else:
            if findings:
                failures.append(
                    f"{rel}: clean fixture has findings: " +
                    "; ".join(f"{f['rule']}@{f['line']}"
                              for f in findings))
            else:
                print(f"self-check: {rel}: clean  [ok]")
    for rule in sorted(RULES):
        if rule not in seen_rules:
            failures.append(
                f"no bad_{rule.replace('-', '_')} fixture proves "
                f"rule '{rule}' fires")

    files = gather_files(root)
    findings = lint_files(root, files)
    if findings:
        print_findings(findings, as_json, len(files))
        failures.append(
            f"tree is not lint-clean ({len(findings)} findings)")
    else:
        print(f"self-check: tree clean ({len(files)} files)  [ok]")

    if failures:
        for msg in failures:
            print(f"self-check FAIL: {msg}")
        return 1
    print("centaur-lint --self-check: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="centaur-sim determinism & unit-hygiene linter")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: the whole tree)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the linter's "
                             "grandparent directory)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable findings")
    parser.add_argument("--self-check", action="store_true",
                        help="verify fixtures fire and HEAD is clean")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    root = os.path.abspath(args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))

    if args.list_rules:
        for name, desc in sorted(RULES.items()):
            print(f"{name:20} {desc}")
        return 0
    if args.self_check:
        return self_check(root, args.json)

    if args.paths:
        files = [os.path.relpath(os.path.abspath(p), root)
                 for p in args.paths]
    else:
        files = gather_files(root)
    findings = lint_files(root, files)
    print_findings(findings, args.json, len(files))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
