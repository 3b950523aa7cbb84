"""Structural scanners for emitted P4 text, used by the tests.

Three checks matter: every brace/paren/bracket closes in order, every
identifier a fragment references is defined either in the fragments
themselves or by the static template, and every flow branch touches each
state register at most once per direction, around its body. Angle
brackets are left out of the balance check because ``>`` doubles as the
comparison operator. ``fixup_assignments`` reads what a flow branch does
to the standard headers, so that a test can run it on field maps.
"""

import re

_COMMENT = re.compile(r"//[^\n]*")
_INCLUDE = re.compile(r"^\s*#include[^\n]*$", re.M)
_NUMBER = re.compile(r"\b\d+w(?:0x[0-9A-Fa-f]+|\d+)\b")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Language keywords, member functions, and architecture names the template
# contract provides without declaring them in scannable form.
VOCABULARY = frozenset(
    {
        "parser", "control", "state", "transition", "select", "default",
        "accept", "reject", "if", "else", "apply", "table", "key",
        "actions", "const", "entries", "default_action", "action",
        "header", "struct", "bit", "bool", "register", "exact",
        "in", "out", "inout", "extract", "emit", "lookahead",
        "setValid", "setInvalid", "isValid", "read", "write",
        "truncate", "random", "update_checksum", "HashAlgorithm",
        "packet_in", "packet_out", "standard_metadata_t", "V1Switch",
        "main", "egress_spec", "ingress_port",
        "define", "ifdef", "ifndef", "endif",
        # template parameter names, fixed by the template contract
        "hdr", "meta", "smeta", "pkt",
    }
)

_DEF_PATTERNS = (
    re.compile(r"\bheader\s+(\w+)\s*\{"),
    re.compile(r"\bstruct\s+(\w+)\s*\{"),
    re.compile(r"\bbit<\d+>\s+(\w+)\s*;"),
    re.compile(r"\baction\s+(\w+)\s*\("),
    re.compile(r"\btable\s+(\w+)\s*\{"),
    re.compile(r"\bstate\s+(\w+)\s*\{"),
    re.compile(r"\bregister<.*>\s*\(\d+\)\s+(\w+)\s*;"),
    re.compile(r"#define\s+(\w+)"),
    re.compile(r"\bconst\s+bit<\d+>\s+(\w+)"),
    re.compile(r"\bparser\s+(\w+)"),
    re.compile(r"\bcontrol\s+(\w+)"),
    # instance declarations: "layout_t name;" or "layout_t name = ..."
    re.compile(r"^\s*([A-Za-z_]\w*)\s+([A-Za-z_]\w*)\s*[;=]", re.M),
)


def _clean(text: str) -> str:
    return _COMMENT.sub("", _INCLUDE.sub("", text))


def check_balanced(text: str) -> None:
    """Raise AssertionError on the first unbalanced (, {, or [."""
    pairs = {")": "(", "}": "{", "]": "["}
    stack = []
    for lineno, line in enumerate(_clean(text).splitlines(), start=1):
        for ch in line:
            if ch in "({[":
                stack.append((ch, lineno))
            elif ch in pairs:
                assert stack, f"unmatched {ch!r} at line {lineno}"
                opener, _ = stack.pop()
                assert opener == pairs[ch], (
                    f"{ch!r} at line {lineno} closes {opener!r}"
                )
    assert not stack, f"unclosed {stack[-1][0]!r} from line {stack[-1][1]}"


def defined_names(*texts: str) -> set:
    found = set()
    for text in texts:
        text = _clean(text)
        for pat in _DEF_PATTERNS:
            for m in pat.finditer(text):
                found.update(g for g in m.groups() if g)
    return found


def referenced_names(*texts: str) -> set:
    found = set()
    for text in texts:
        found.update(_IDENT.findall(_NUMBER.sub(" ", _clean(text))))
    return found


def unresolved_names(fragments: dict, template_text: str) -> set:
    """Identifiers the fragments use but nobody defines."""
    scannable = [t for n, t in fragments.items() if n.endswith(".p4inc")]
    defined = defined_names(template_text, *scannable) | VOCABULARY
    return referenced_names(*scannable) - defined


_FLOW = re.compile(r"^\s*// flow (\w+)$")
_ORDINAL = re.compile(r"^\s*// \[\d+\]")
_ACCESS = re.compile(r"\b((?:reg|ring)__\w+)\.(read|write)\(")
_REGISTER = re.compile(r"\bregister<.*>\s*\(\d+\)\s+(\w+)\s*;")


def flow_branches(apply: str) -> dict:
    """The lines of each flow branch of an apply fragment, by selector name."""
    branches = {}
    lines = None
    for line in apply.splitlines():
        m = _FLOW.match(line)
        if m:
            lines = branches[m.group(1)] = []
        elif lines is not None:
            lines.append(line)
    return branches


def _is_state(register: str) -> bool:
    """A shared variable's register or a ring head, not a ring's slots."""
    return register.startswith("reg__") or register.endswith("__head")


def check_state_access(apply: str, decls: str) -> None:
    """Raise AssertionError unless, in every flow branch, each state
    register (``reg__*`` and ``ring__*__head``) has at most one ``.read(``,
    in front of the body's first ``// [n]`` comment, and at most one
    ``.write(``, behind its last; and unless every register the apply
    fragment uses is declared in ``decls``."""
    declared = set(_REGISTER.findall(_clean(decls)))
    for flow, lines in flow_branches(apply).items():
        ordinals = [i for i, line in enumerate(lines) if _ORDINAL.match(line)]
        first, last = (ordinals[0], ordinals[-1]) if ordinals else (len(lines), -1)
        seen = set()
        for i, line in enumerate(lines):
            for register, kind in _ACCESS.findall(_COMMENT.sub("", line)):
                assert register in declared, f"flow {flow}: {register} is not declared"
                if not _is_state(register):
                    continue
                if kind == "read":
                    assert i < first, f"flow {flow}: {register} is read inside the body"
                else:
                    assert i > last, f"flow {flow}: {register} is written inside the body"
                assert (register, kind) not in seen, f"flow {flow}: second {kind} of {register}"
                seen.add((register, kind))


# The template's standard header instances, and the forms a flow branch may
# assign to their fields: a 16-bit constant, or a field plus or minus one.
STANDARD_HEADERS = frozenset({"ethernet", "ipv4", "udp", "tcp"})
_HEADER_ASSIGNMENT = re.compile(r"^\s*hdr\.(\w+)\.(\w+) = (.*);$")
_FIXUP_FORM = re.compile(r"^(?:hdr\.(\w+)\.(\w+) ([+-]) )?16w(\d+)$")


def fixup_assignments(branch_text: str) -> list:
    """The assignments to standard-header fields in a flow branch, in
    order, as (header, field, value) where ``value(headers)`` maps the
    header field maps at that point to the new value. Three forms are
    read, all mod 2^16: ``16wN``, ``hdr.h.f + 16wN`` and ``hdr.h.f -
    16wN``. Any other form raises AssertionError, so a newly emitted form
    fails the test that reads it."""
    found = []
    for line in _COMMENT.sub("", branch_text).splitlines():
        m = _HEADER_ASSIGNMENT.match(line)
        if m is None or m.group(1) not in STANDARD_HEADERS:
            continue
        header, field, rhs = m.groups()
        form = _FIXUP_FORM.match(rhs)
        assert form is not None, f"hdr.{header}.{field}: unknown form {rhs!r}"
        source, name, op, n = form.groups()
        assert int(n) >> 16 == 0, f"hdr.{header}.{field}: 16w{n} does not fit 16 bits"
        sign = -1 if op == "-" else 1

        def value(headers, source=source, name=name, sign=sign, n=int(n)):
            old = 0 if source is None else headers[source][name]
            return (old + sign * n) & 0xFFFF

        found.append((header, field, value))
    return found
