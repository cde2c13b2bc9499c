#!/usr/bin/env python3
"""Wire-schema extraction and writer/reader symmetry analysis.

Every codec pair in the tree that puts bytes on a wire (fabric frames,
transport envelopes, checkpoint shards, DistHashMap batches, the job
server's line protocol) is annotated at the function definition:

    // wire-schema: <message> writer
    // wire-schema: <message> reader [trusted] [stream]

wirecheck parses each annotated function body — put_/get_ call order,
POD widths, length-prefix/loop pairing, string and blob framing — into a
field sequence, then diffs the writer's declared schema against the
reader's. The checks are deliberately *syntactic* (per function body, no
compilation database), same philosophy as lint_phases.py: they catch the
drift a reviewer could in principle see, before any test runs.

Schema model (one node per wire field):

    ["u8"|"u16"|"u32"|"u64"|"i32"|"i64"|"char"|"f32"|"f64"]   scalar
    ["pod", "<Type>"]      trivially-copyable struct, named type
    ["bytes"]              u32-length-prefixed byte string
    ["blob", "<spec>"]     raw bytes framed by an earlier field (decl form)
    ["magic", "<kConst>"]  format magic (u32)
    ["crc32"]              CRC-32C integrity word
    ["rest"]               everything to the end of the payload
    ["loop", <bind>, [children]]   repeated group; bind = "prev" (count is
                           the nearest preceding scalar), a hint label, or
                           "stream" (reads until exhausted)
    ["opt", [children]]    flag-guarded group
    ["ref", "<schema>"]    call into another annotated codec

Extraction sources, in priority order:
  1. `// wire-decl: <node>` lines under the annotation (one field per
     line; used where the body is not put_/get_ shaped, e.g. seqdb's
     string-based codec and the server's hex-framed line protocol);
  2. the body's put_*/get_* calls, plus trailing `// wire: <node>` hints
     on lines the scanner cannot type on its own (`put_pod` of a deduced
     argument, memcpy'd `rest` tails), standalone `// wire: crc32` /
     `// wire: magic <kConst>` markers for fields consumed away from the
     Reader, and `// wire: loop <label>` on loops whose bound is carried
     out of band (e.g. the team size);
  3. `// wire-helper: <name> <node>` on a helper function teaches the
     scanner that calls to it produce that node (e.g. get_flag -> u8).

Rule packs (finding lines are grep-able by the code in brackets):

  symmetry
    [field-mismatch]      writer and reader disagree on a field's kind
    [width-mismatch]      same kind, different scalar width
    [field-count]         one side has more fields than the other
    [loop-mismatch]       loop bounds bind differently on the two sides
    [orphan-loop]         a loop with no preceding count and no hint
    [orphan-length-prefix] a writer emits a `.size()` count that no loop
                          or blob consumes
    [writer-divergence]   two writers of one schema disagree
    [missing-reader] / [missing-writer]  annotated half without its twin

  robustness
    [unchecked-decode]    a reader not marked `trusted` uses the
                          non-throwing getter API (get_u32 / get_pod /
                          get_bytes without _checked)
    [crc-missing]         the writer emits a CRC but the reader never
                          verifies one

  drift gating (--check-manifest, against tools/wirecheck/schemas.json)
    [manifest-drift]      extracted schema differs from the committed
                          manifest entry without a rev bump
    [manifest-missing]    schema in the tree but not in the manifest
    [manifest-stale]      schema in the manifest but not in the tree

Suppression: `// wirecheck: allow(<code>): <reason>` on the annotation
line or inside the function suppresses that code for that schema. The
reason is mandatory — a bare allow() is itself a finding
[unexplained-suppression].

The manifest doubles as the input of the generated corruption tests
(tools/wirecheck/gen_schema_tests.py): each entry carries an `integrity`
field — "crc" when the schema carries its own CRC (sweeps expect every
flip/truncation to be rejected outright), "delegated" when integrity is
the envelope's job (sweeps expect rejection OR a decode that visibly
differs from the original).

Usage:
  wirecheck.py [--root DIR] [--manifest FILE] [--check-manifest]
               [--update-manifest] [--dump] [--verbose] [PATH...]
Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h"}

# Schemas that the generated sweep harness intentionally does not drive
# end-to-end, with the reason recorded here (these are the only allowed
# "sweep": "none" entries; gen_schema_tests.py re-checks the set).
SWEEP_OVERRIDES = {
    "ckpt_aux_stats": "fragment of ckpt_manifest; swept inside it",
    "contig_req": "private ContigStore RPC codec; two fixed PODs, "
    "exercised end-to-end by the fabric frame sweeps",
    "read_record": "only decoded in-process (trusted get_read of buffers "
    "this process framed); no reader takes untrusted bytes",
}

SCHEMA_RE = re.compile(
    r"//\s*wire-schema:\s*([a-z0-9_]+)\s+(writer|reader)((?:\s+\w+)*)"
)
DECL_RE = re.compile(r"//\s*wire-decl:\s*(.+?)\s*$")
HELPER_RE = re.compile(r"//\s*wire-helper:\s*([A-Za-z_]\w*)\s+(\S.*?)\s*$")
HINT_RE = re.compile(r"//\s*wire:\s*(.+?)\s*$")
ALLOW_RE = re.compile(r"//\s*wirecheck:\s*allow\(([a-z-]+)\)(:\s*(\S.*))?")
MAGIC_ID_RE = re.compile(r"\bk\w*Magic\b")
CRC_CALL_RE = re.compile(r"\bcrc32c?\s*\(")

SCALARS = {
    "u8": 1, "u16": 2, "u32": 4, "u64": 8,
    "i8": 1, "i16": 2, "i32": 4, "i64": 8,
    "char": 1, "f32": 4, "f64": 8,
}

TYPE_ALIASES = {
    "std::uint8_t": "u8", "uint8_t": "u8",
    "std::uint16_t": "u16", "uint16_t": "u16",
    "std::uint32_t": "u32", "uint32_t": "u32",
    "std::uint64_t": "u64", "uint64_t": "u64",
    "std::int8_t": "i8", "int8_t": "i8",
    "std::int16_t": "i16", "int16_t": "i16",
    "std::int32_t": "i32", "int32_t": "i32",
    "std::int64_t": "i64", "int64_t": "i64",
    "std::size_t": "u64", "size_t": "u64",
    "float": "f32", "double": "f64", "char": "char",
    "std::byte": "u8",
}

METHOD_CALL_RE = re.compile(
    r"(?:\.|->)\s*(get_u32|get_u64|get_bytes|get_pod|get_raw|get_view|get_read"
    r"|put_u32|put_u64|put_bytes|put_pod)"
    r"(_checked)?\s*(<[^;]*?>)?\s*\("
)
FREE_CALL_RE = re.compile(r"(?<![\w.>])([A-Za-z_]\w*)\s*\(")
CONTROL_RE = re.compile(r"^\s*(?:\}\s*)?(for|while|if|else\s+if|else)\b")
FUNC_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*\($")


def norm_type(t: str) -> str:
    t = re.sub(r"\s+", " ", t.strip())
    return TYPE_ALIASES.get(t, t)


def type_node(t: str) -> list:
    n = norm_type(t)
    return [n] if n in SCALARS else ["pod", n]


@dataclass
class Codec:
    schema: str
    role: str          # "writer" | "reader"
    attrs: list[str]   # trusted, stream
    path: Path
    line: int          # 1-based line of the annotation
    func: str = ""
    nodes: list = field(default_factory=list)
    declared: bool = False
    unchecked_lines: list[int] = field(default_factory=list)
    allows: dict[str, str] = field(default_factory=dict)
    bare_allows: list[int] = field(default_factory=list)


@dataclass
class Finding:
    path: Path
    line: int
    code: str
    message: str
    schema: str = ""

    def render(self) -> str:
        tag = f" (schema {self.schema})" if self.schema else ""
        return f"{self.path}:{self.line}: [{self.code}] {self.message}{tag}"


def parse_decl(text: str) -> list:
    """One `wire-decl` field: `[opt] <kind>[ <arg>]`."""
    toks = text.split()
    wrap_opt = toks and toks[0] == "opt"
    if wrap_opt:
        toks = toks[1:]
    if not toks:
        raise ValueError("empty wire-decl")
    kind = toks[0]
    if kind in SCALARS:
        node = [kind]
    elif kind == "pod":
        node = ["pod", norm_type(" ".join(toks[1:]))]
    elif kind == "bytes":
        node = ["bytes"]
    elif kind == "crc32":
        node = ["crc32"]
    elif kind == "rest":
        node = ["rest"]
    elif kind == "blob":
        node = ["blob", " ".join(toks[1:])]
    elif kind == "magic":
        node = ["magic", toks[1] if len(toks) > 1 else "?"]
    else:
        raise ValueError(f"unknown wire-decl kind '{kind}'")
    return ["opt", [node]] if wrap_opt else node


def parse_hint(text: str) -> tuple[str, list | str | None]:
    """A `// wire:` hint. Returns (kind, payload):
    ("node", node) for field-typed hints, ("loop", label), ("magic", const),
    ("crc32", None), ("rest", None)."""
    toks = text.split()
    kind = toks[0]
    if kind == "loop":
        return ("loop", toks[1] if len(toks) > 1 else "prev")
    if kind == "magic":
        return ("magic", toks[1] if len(toks) > 1 else "?")
    if kind == "crc32":
        return ("crc32", None)
    if kind == "rest":
        return ("rest", None)
    if kind == "pod":
        return ("node", type_node(" ".join(toks[1:])))
    if kind in SCALARS:
        return ("node", [kind])
    raise ValueError(f"unknown wire hint '{text}'")


class FileScanner:
    """Per-file pass: finds annotations, captures bodies, extracts nodes."""

    def __init__(self, path: Path, text: str, helpers: dict[str, list]):
        self.path = path
        self.lines = text.splitlines()
        self.helpers = helpers
        self.errors: list[Finding] = []

    # -- annotation discovery ------------------------------------------

    def collect_helpers(self) -> None:
        for i, line in enumerate(self.lines):
            m = HELPER_RE.search(line)
            if not m:
                continue
            try:
                _, payload = parse_hint(m.group(2))
                if isinstance(payload, list):
                    self.helpers[m.group(1)] = payload
                else:
                    raise ValueError("helper hint must be a field node")
            except ValueError as e:
                self.errors.append(
                    Finding(self.path, i + 1, "bad-annotation", str(e)))

    def scan(self) -> list[Codec]:
        codecs = []
        for i, line in enumerate(self.lines):
            m = SCHEMA_RE.search(line)
            if not m:
                continue
            codec = Codec(
                schema=m.group(1),
                role=m.group(2),
                attrs=m.group(3).split(),
                path=self.path,
                line=i + 1,
            )
            am = ALLOW_RE.search(line)
            if am:
                self._record_allow(codec, am, i + 1)
            self._extract(codec, i + 1)
            codecs.append(codec)
        return codecs

    def _record_allow(self, codec: Codec, m, lineno: int) -> None:
        code, reason = m.group(1), m.group(3)
        if reason:
            codec.allows[code] = reason
        else:
            codec.bare_allows.append(lineno)

    # -- body capture ---------------------------------------------------

    def _extract(self, codec: Codec, start: int) -> None:
        """start = 0-based index just past the annotation line."""
        decls: list = []
        i = start
        # Leading comment block: wire-decl lines and ordinary comments.
        while i < len(self.lines):
            stripped = self.lines[i].strip()
            dm = DECL_RE.search(stripped)
            if dm:
                try:
                    decls.append(parse_decl(dm.group(1)))
                except ValueError as e:
                    self.errors.append(
                        Finding(self.path, i + 1, "bad-annotation", str(e),
                                codec.schema))
                i += 1
                continue
            if stripped.startswith("//") or stripped.startswith("template"):
                i += 1
                continue
            break
        # Signature: accumulate until the opening '('.
        sig = ""
        sig_start = i
        while i < len(self.lines):
            sig += " " + self.lines[i].strip()
            if "(" in sig:
                break
            i += 1
        head = sig[: sig.index("(") + 1].strip() if "(" in sig else ""
        nm = FUNC_NAME_RE.search(head)
        if not nm:
            self.errors.append(
                Finding(self.path, codec.line, "bad-annotation",
                        "annotation is not followed by a function definition",
                        codec.schema))
            return
        codec.func = nm.group(1)
        if decls:
            codec.nodes = decls
            codec.declared = True
            return
        # Body: from the first '{' after the signature to its match.
        body_lines, body_start = self._capture_body(sig_start)
        if body_lines is None:
            self.errors.append(
                Finding(self.path, codec.line, "bad-annotation",
                        f"cannot find body of {codec.func}", codec.schema))
            return
        parser = BodyParser(self, codec, body_lines, body_start)
        codec.nodes = parser.parse()

    def _capture_body(self, sig_start: int):
        depth = 0
        started = False
        first = None
        for i in range(sig_start, len(self.lines)):
            for ch in self.lines[i]:
                if ch == "{":
                    if not started:
                        started = True
                        first = i
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if started and depth == 0:
                        return self.lines[first : i + 1], first
            if i - sig_start > 400:
                break
        return None, 0


class BodyParser:
    """Turns an annotated function body into a node list.

    Line-oriented: control-flow headers (`for`/`while`/`if`/`else`) open
    nested scopes (braced, single-line, or two-line unbraced); every other
    line is scanned for wire calls and hints.
    """

    def __init__(self, scanner: FileScanner, codec: Codec,
                 lines: list[str], start: int):
        self.sc = scanner
        self.codec = codec
        self.lines = lines
        self.start = start  # 0-based index of lines[0] in the file

    def parse(self) -> list:
        nodes, _ = self._block(0, len(self.lines))
        return nodes

    def lineno(self, i: int) -> int:
        return self.start + i + 1

    # -- block parsing --------------------------------------------------

    def _block(self, i: int, end: int) -> tuple[list, int]:
        nodes: list = []
        while i < end:
            line = self.lines[i]
            ctrl = CONTROL_RE.match(line)
            if ctrl and not line.strip().startswith("//"):
                i = self._control(nodes, i, end, ctrl.group(1))
                continue
            self._scan_line(nodes, line, i)
            i += 1
        return nodes, i

    @staticmethod
    def _strip(line: str) -> str:
        line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        return re.sub(r"//.*$", "", line)

    def _control(self, nodes: list, i: int, end: int, kw: str) -> int:
        """Parse one control statement starting at line i; append a loop/opt
        node if its body produced wire fields. Wire calls in the header's
        condition (e.g. `if (r.get_u32_checked(...) != kMagic)`) belong to
        the ENCLOSING scope and are scanned into `nodes` directly. Returns
        the next index."""
        # Accumulate header lines until the control parens balance.
        header = self.lines[i]
        j = i
        while (self._strip(header).count("(")
               > self._strip(header).count(")")) and j + 1 < end:
            j += 1
            header += " " + self.lines[j]
        hint = None
        hm = HINT_RE.search(header)
        if hm:
            try:
                hint = parse_hint(hm.group(1))
            except ValueError as e:
                self.sc.errors.append(Finding(
                    self.sc.path, self.lineno(i), "bad-annotation", str(e),
                    self.codec.schema))
        code = self._strip(header)
        # Split into condition (inside the control parens) and tail (after).
        cond, tail = "", code
        if kw != "else":
            op = code.find("(")
            if op >= 0:
                depth = 0
                close = -1
                for pos in range(op, len(code)):
                    if code[pos] == "(":
                        depth += 1
                    elif code[pos] == ")":
                        depth -= 1
                        if depth == 0:
                            close = pos
                            break
                if close >= 0:
                    cond = code[op + 1 : close]
                    tail = code[close + 1 :]
        else:
            tail = code[code.find("else") + 4 :]
        # Condition-side wire calls surface in the enclosing scope.
        self._wire_calls(nodes, cond, i, None)

        children: list = []
        if "{" in tail:
            after_brace = tail.split("{", 1)[1]
            if after_brace.strip():
                self._scan_fragment(children, after_brace, j, nodes)
            # Find the matching close brace, counting from the header. A
            # leading `}` on the header (`} else {`) closes the previous
            # block, not this one — drop it before counting.
            depth = 0
            opened = False
            k = i
            while k < end:
                text_k = self._strip(self.lines[k])
                if k == i:
                    text_k = text_k.lstrip().lstrip("}")
                for ch in text_k:
                    if ch == "{":
                        depth += 1
                        opened = True
                    elif ch == "}":
                        depth -= 1
                if opened and depth <= 0:
                    break
                k += 1
            inner, _ = self._block(j + 1, k)
            children.extend(inner)
            nxt = k + 1
        elif tail.strip() and tail.strip() != ";":
            # Single-line body after the header.
            self._scan_fragment(children, tail, j, nodes)
            nxt = j + 1
        elif tail.strip() == ";":
            nxt = j + 1
        else:
            # Unbraced body on the following line(s), up to its ';'.
            k = j + 1
            while k < end:
                self._scan_fragment(children, self.lines[k], k, nodes)
                if self._strip(self.lines[k]).rstrip().endswith(";"):
                    break
                k += 1
            nxt = k + 1
        if not children:
            return nxt
        if kw in ("for", "while"):
            label = "prev"
            if hint and hint[0] == "loop":
                label = hint[1]
            elif "stream" in self.codec.attrs:
                label = "stream"
            nodes.append(["loop", label, children])
        else:
            nodes.append(["opt", children])
        return nxt

    def _scan_fragment(self, children: list, text: str, i: int,
                       raw_parent: list) -> None:
        """Scan a control-statement body fragment. A lone get_raw whose
        length field lives in the enclosing scope (`if (len > 0)
        r.get_raw(...)`) merges there instead of opening a group."""
        hint = None
        hm = HINT_RE.search(text)
        if hm:
            try:
                hint = parse_hint(hm.group(1))
            except ValueError:
                hint = None
        code = self._strip(text)
        if "get_raw" in code and not children:
            self._absorb_raw(raw_parent, i)
            return
        self._wire_calls(children, code, i, hint)
        if not children and hint is not None:
            kind, payload = hint
            if kind == "node":
                children.append(payload)
            elif kind == "rest":
                children.append(["rest"])

    # -- line scanning --------------------------------------------------

    def _scan_line(self, nodes: list, line: str, i: int) -> None:
        am = ALLOW_RE.search(line)
        if am:
            code, reason = am.group(1), am.group(3)
            if reason:
                self.codec.allows[code] = reason
            else:
                self.codec.bare_allows.append(self.lineno(i))
        hint = None
        hm = HINT_RE.search(line)
        if hm:
            try:
                hint = parse_hint(hm.group(1))
            except ValueError as e:
                self.sc.errors.append(Finding(
                    self.sc.path, self.lineno(i), "bad-annotation", str(e),
                    self.codec.schema))
        code_part = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        code_part = re.sub(r"//.*$", "", code_part)

        produced = self._wire_calls(nodes, code_part, i, hint)
        if produced or hint is None:
            return
        # Standalone hints: fields consumed/produced away from this Reader
        # or by code the scanner cannot type.
        kind, payload = hint
        if kind == "magic":
            nodes.append(["magic", payload])
        elif kind == "crc32":
            nodes.append(["crc32"])
        elif kind == "rest":
            nodes.append(["rest"])
        elif kind == "node":
            nodes.append(payload)
        # ("loop", ...) on a non-control line is meaningless; ignore.

    def _wire_calls(self, nodes: list, code: str, i: int, hint) -> bool:
        """Scan one comment-stripped line for wire calls; returns True if
        any node was produced (the hint, if present, types the call)."""
        produced = False
        want = "put" if self.codec.role == "writer" else "get"

        for m in METHOD_CALL_RE.finditer(code):
            name, checked, targ = m.group(1), m.group(2), m.group(3)
            if not name.startswith(want):
                continue  # writers ignore gets and vice versa
            produced = True
            if want == "get" and not checked \
                    and name not in ("get_raw", "get_view") \
                    and "trusted" not in self.codec.attrs:
                self.codec.unchecked_lines.append(self.lineno(i))
            base = name.replace("put_", "").replace("get_", "")
            if base in ("raw", "view"):
                self._absorb_raw(nodes, i)
                continue
            if base == "read":
                nodes.append(["ref", "read_record"])
                continue
            if base == "bytes":
                nodes.append(["bytes"])
                continue
            if base == "pod":
                if hint and hint[0] == "node":
                    node = list(hint[1])
                elif targ:
                    node = type_node(targ.strip("<>"))
                else:
                    # put_pod(static_cast<T>(...)) names its own width.
                    sc_m = re.match(r"\s*static_cast\s*<([^<>]+)>",
                                    code[m.end():])
                    if sc_m:
                        node = type_node(sc_m.group(1))
                    else:
                        self.sc.errors.append(Finding(
                            self.sc.path, self.lineno(i), "bad-annotation",
                            "cannot infer put_pod/get_pod type; add a "
                            "`// wire: pod <T>` hint", self.codec.schema))
                        continue
            else:
                node = [base]
            # u32-shaped fields may really be magics, CRCs, or counts —
            # whether they arrived via put_u32 or a pod<u32> getter.
            if node[0] in ("u32", "u64"):
                if hint and hint[0] == "magic":
                    node = ["magic", hint[1]]
                elif hint and hint[0] == "crc32":
                    node = ["crc32"]
                elif self._is_magic(code, i):
                    node = ["magic", self._magic_name(code, i)]
                elif want == "put" and CRC_CALL_RE.search(code):
                    node = ["crc32"]
                elif want == "put" and ".size()" in code:
                    node = [node[0], "len"]
            nodes.append(node)
        if produced:
            return True

        # Free-function calls: annotated codec refs and declared helpers.
        for m in FREE_CALL_RE.finditer(code):
            name = m.group(1)
            if name in self.sc.helpers:
                if want == "get":
                    nodes.append(list(self.sc.helpers[name]))
                    produced = True
                continue
            ref = CALL_REGISTRY.get((name, self.codec.role))
            if ref is not None and ref != self.codec.schema:
                nodes.append(["ref", ref])
                produced = True
        return produced

    def _absorb_raw(self, nodes: list, i: int) -> None:
        """get_raw / get_view: merges a preceding length scalar into a bytes
        node, is absorbed by a pending rest node, or errors."""
        if nodes and nodes[-1] == ["rest"]:
            return
        if nodes and nodes[-1] and nodes[-1][0] in ("u32", "u64"):
            nodes[-1] = ["bytes"]
            return
        if nodes and nodes[-1] == ["bytes"]:
            return  # already merged (require/resize/get_raw multi-line)
        self.sc.errors.append(Finding(
            self.sc.path, self.lineno(i), "bad-annotation",
            "get_raw with no preceding length field or rest hint",
            self.codec.schema))

    def _is_magic(self, code: str, i: int) -> bool:
        return self._magic_name(code, i) is not None

    def _magic_name(self, code: str, i: int):
        m = MAGIC_ID_RE.search(code)
        if m:
            return m.group(0)
        # The comparison may sit on the following line or two — but only
        # look there when this line calls its field a magic (the reader
        # convention, e.g. get_u32_checked("ufx magic")); otherwise an
        # ordinary count read adjacent to a magic mention would be
        # misclassified.
        raw = self.lines[i] if 0 <= i < len(self.lines) else ""
        if "magic" not in raw.lower():
            return None
        for k in (1, 2):
            if i + k < len(self.lines):
                m = MAGIC_ID_RE.search(self.lines[i + k])
                if m:
                    return m.group(0)
        return None


# (function name, role) -> schema, for ref resolution. Filled in pass 1.
CALL_REGISTRY: dict[tuple[str, str], str] = {}


# ---------------------------------------------------------------------------
# analysis


def strip_integrity(nodes: list) -> tuple[list, bool, bool]:
    """Remove crc32/magic nodes from a node list (recursively for groups).
    Returns (stripped, has_crc, has_magic)."""
    out = []
    has_crc = has_magic = False
    for n in nodes:
        if n[0] == "crc32":
            has_crc = True
        elif n[0] == "magic":
            has_magic = True
            out.append(n)  # magics stay positional; compared by const name
        elif n[0] == "loop":
            child, c, g = strip_integrity(n[2])
            has_crc |= c
            has_magic |= g
            out.append(["loop", n[1], child])
        elif n[0] == "opt":
            child, c, g = strip_integrity(n[1])
            has_crc |= c
            has_magic |= g
            out.append(["opt", child])
        else:
            out.append(n)
    return out, has_crc, has_magic


def node_desc(n: list) -> str:
    if n[0] == "pod":
        return f"pod {n[1]}"
    if n[0] == "loop":
        return f"loop[{n[1]}]"
    if n[0] in ("ref", "magic", "blob"):
        return f"{n[0]} {n[1]}"
    return n[0]


class Analyzer:
    def __init__(self, codecs: list[Codec], verbose: bool = False):
        self.codecs = codecs
        self.verbose = verbose
        self.findings: list[Finding] = []
        self.by_schema: dict[str, dict[str, list[Codec]]] = {}
        for c in codecs:
            self.by_schema.setdefault(c.schema, {}).setdefault(
                c.role, []).append(c)

    def _emit(self, codec: Codec, line: int, code: str, msg: str) -> None:
        if code in codec.allows:
            return
        self.findings.append(Finding(codec.path, line, code, msg,
                                     codec.schema))

    # expansion of refs for structural diffing
    def _expand(self, nodes: list, role: str, seen: tuple = ()) -> list:
        out = []
        for n in nodes:
            if n[0] == "ref":
                target = n[1]
                if target in seen:
                    continue
                roles = self.by_schema.get(target, {})
                peers = roles.get(role, [])
                if peers:
                    out.extend(self._expand(peers[0].nodes, role,
                                            seen + (target,)))
                else:
                    out.append(n)
            elif n[0] == "loop":
                out.append(["loop", n[1],
                            self._expand(n[2], role, seen)])
            elif n[0] == "opt":
                out.append(["opt", self._expand(n[1], role, seen)])
            else:
                out.append(n)
        return out

    def run(self) -> list[Finding]:
        for codec in self.codecs:
            for lineno in codec.bare_allows:
                self.findings.append(Finding(
                    codec.path, lineno, "unexplained-suppression",
                    "allow() without a reason — write "
                    "`// wirecheck: allow(<code>): <why>`", codec.schema))
            for lineno in codec.unchecked_lines:
                self._emit(codec, lineno, "unchecked-decode",
                           "reader uses the non-throwing getter API on a "
                           "schema not marked `trusted`")
            if codec.role == "writer" and not codec.declared:
                self._writer_prefix_check(codec)
        for schema, roles in sorted(self.by_schema.items()):
            self._check_schema(schema, roles)
        return self.findings

    def _writer_prefix_check(self, codec: Codec) -> None:
        def walk(nodes: list) -> None:
            for idx, n in enumerate(nodes):
                if n[0] in ("u32", "u64") and len(n) > 1 and n[1] == "len":
                    nxt = nodes[idx + 1] if idx + 1 < len(nodes) else None
                    if nxt is None or nxt[0] not in ("loop", "bytes", "blob",
                                                     "rest"):
                        self._emit(codec, codec.line, "orphan-length-prefix",
                                   "writer emits a size() count that no "
                                   "loop or blob consumes")
                if n[0] == "loop":
                    walk(n[2])
                elif n[0] == "opt":
                    walk(n[1])
        walk(codec.nodes)

    def _check_schema(self, schema: str, roles: dict) -> None:
        writers = roles.get("writer", [])
        readers = roles.get("reader", [])
        if not readers:
            w = writers[0]
            self._emit(w, w.line, "missing-reader",
                       "writer has no annotated reader")
            return
        if not writers:
            r = readers[0]
            self._emit(r, r.line, "missing-writer",
                       "reader has no annotated writer")
            return
        # Writers of one schema must agree with each other.
        base = self._canon(writers[0], "writer")
        for w in writers[1:]:
            if self._canon(w, "writer") != base:
                self._emit(w, w.line, "writer-divergence",
                           f"disagrees with the writer at "
                           f"{writers[0].path}:{writers[0].line}")
        for w in writers:
            for r in readers:
                self._diff_pair(schema, w, r)

    def _canon(self, codec: Codec, role: str) -> list:
        nodes = self._expand(codec.nodes, role)
        stripped, _, _ = strip_integrity(nodes)
        return stripped

    def _diff_pair(self, schema: str, w: Codec, r: Codec) -> None:
        wn = self._expand(w.nodes, "writer")
        rn = self._expand(r.nodes, "reader")
        ws, w_crc, _ = strip_integrity(wn)
        rs, r_crc, _ = strip_integrity(rn)
        if w_crc and not r_crc:
            self._emit(r, r.line, "crc-missing",
                       "writer emits a CRC the reader never verifies")
        ctx = f"writer {w.path.name}:{w.line} vs reader {r.path.name}:{r.line}"
        self._diff_nodes(schema, r, ws, rs, ctx, [])
        self._orphan_loops(w)
        self._orphan_loops(r)

    def _orphan_loops(self, codec: Codec) -> None:
        def walk(nodes: list) -> None:
            for idx, n in enumerate(nodes):
                if n[0] == "loop":
                    if n[1] == "prev":
                        prev = nodes[idx - 1] if idx > 0 else None
                        if prev is None or prev[0] not in ("u32", "u64"):
                            self._emit(codec, codec.line, "orphan-loop",
                                       "loop has no preceding count field "
                                       "and no `// wire: loop <label>` hint")
                    walk(n[2])
                elif n[0] == "opt":
                    walk(n[1])
        if not codec.declared:
            walk(codec.nodes)

    def _diff_nodes(self, schema: str, r: Codec, ws: list, rs: list,
                    ctx: str, trail: list) -> None:
        where = "/".join(trail) or "top level"
        if len(ws) != len(rs):
            self._emit(r, r.line, "field-count",
                       f"writer has {len(ws)} fields, reader {len(rs)} at "
                       f"{where} ({ctx}); writer: "
                       f"{[node_desc(n) for n in ws]}, reader: "
                       f"{[node_desc(n) for n in rs]}")
            return
        for idx, (a, b) in enumerate(zip(ws, rs)):
            spot = f"field {idx} at {where}"
            if a[0] != b[0]:
                # A scalar/scalar disagreement is a width problem when both
                # are scalars; anything else is a kind mismatch.
                if a[0] in SCALARS and b[0] in SCALARS:
                    self._emit(r, r.line, "width-mismatch",
                               f"{spot}: writer {node_desc(a)} vs reader "
                               f"{node_desc(b)} ({ctx})")
                else:
                    self._emit(r, r.line, "field-mismatch",
                               f"{spot}: writer {node_desc(a)} vs reader "
                               f"{node_desc(b)} ({ctx})")
                continue
            kind = a[0]
            if kind in SCALARS:
                continue
            if kind == "pod" and norm_type(a[1]) != norm_type(b[1]):
                self._emit(r, r.line, "field-mismatch",
                           f"{spot}: writer pod {a[1]} vs reader pod {b[1]} "
                           f"({ctx})")
            elif kind == "magic" and a[1] != b[1]:
                self._emit(r, r.line, "field-mismatch",
                           f"{spot}: writer magic {a[1]} vs reader magic "
                           f"{b[1]} ({ctx})")
            elif kind == "blob" and a[1] != b[1]:
                self._emit(r, r.line, "field-mismatch",
                           f"{spot}: writer blob[{a[1]}] vs reader "
                           f"blob[{b[1]}] ({ctx})")
            elif kind == "ref" and a[1] != b[1]:
                self._emit(r, r.line, "field-mismatch",
                           f"{spot}: writer ref {a[1]} vs reader ref {b[1]} "
                           f"({ctx})")
            elif kind == "loop":
                if a[1] != b[1]:
                    self._emit(r, r.line, "loop-mismatch",
                               f"{spot}: writer loop bound '{a[1]}' vs "
                               f"reader loop bound '{b[1]}' ({ctx})")
                self._diff_nodes(schema, r, a[2], b[2], ctx,
                                 trail + [f"loop{idx}"])
            elif kind == "opt":
                self._diff_nodes(schema, r, a[1], b[1], ctx,
                                 trail + [f"opt{idx}"])


# ---------------------------------------------------------------------------
# manifest


def manifest_entry(analyzer: Analyzer, schema: str, roles: dict) -> dict:
    writers = roles.get("writer", [])
    readers = roles.get("reader", [])
    w_nodes = writers[0].nodes if writers else []
    r_nodes = readers[0].nodes if readers else []
    _, w_crc, _ = strip_integrity(analyzer._expand(w_nodes, "writer"))
    integrity = "crc" if w_crc else "delegated"
    sweep = "reject" if w_crc else "detect"
    if schema in SWEEP_OVERRIDES:
        sweep = "none"
    entry = {
        "integrity": integrity,
        "sweep": sweep,
        "writer": w_nodes,
        "reader": r_nodes,
    }
    if schema in SWEEP_OVERRIDES:
        entry["sweep_reason"] = SWEEP_OVERRIDES[schema]
    return entry


def build_manifest(analyzer: Analyzer, old: dict | None) -> dict:
    schemas = {}
    for schema, roles in sorted(analyzer.by_schema.items()):
        entry = manifest_entry(analyzer, schema, roles)
        old_entry = (old or {}).get("schemas", {}).get(schema)
        if old_entry is None:
            entry["rev"] = 1
        elif (old_entry.get("writer") != entry["writer"]
              or old_entry.get("reader") != entry["reader"]):
            entry["rev"] = int(old_entry.get("rev", 0)) + 1
        else:
            entry["rev"] = int(old_entry.get("rev", 1))
        schemas[schema] = entry
    return {"format": 1, "schemas": schemas}


def check_manifest(analyzer: Analyzer, manifest_path: Path) -> list[Finding]:
    findings: list[Finding] = []
    try:
        committed = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [Finding(manifest_path, 1, "manifest-drift",
                        f"cannot read manifest: {e}")]
    fresh = build_manifest(analyzer, committed)
    old_schemas = committed.get("schemas", {})
    new_schemas = fresh["schemas"]
    for name, entry in sorted(new_schemas.items()):
        old = old_schemas.get(name)
        if old is None:
            findings.append(Finding(
                manifest_path, 1, "manifest-missing",
                f"schema '{name}' is in the tree but not in the manifest; "
                f"run --update-manifest"))
            continue
        if (old.get("writer") != entry["writer"]
                or old.get("reader") != entry["reader"]):
            findings.append(Finding(
                manifest_path, 1, "manifest-drift",
                f"schema '{name}' changed on disk (manifest rev "
                f"{old.get('rev')}); run --update-manifest to record the "
                f"new shape and bump the rev"))
    for name in sorted(old_schemas):
        if name not in new_schemas:
            findings.append(Finding(
                manifest_path, 1, "manifest-stale",
                f"manifest lists schema '{name}' which no longer exists in "
                f"the tree; run --update-manifest"))
    return findings


# ---------------------------------------------------------------------------
# driver


def gather_files(paths: list[Path]) -> list[Path]:
    files = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*") if f.suffix in SUFFIXES))
        elif p.suffix in SUFFIXES:
            files.append(p)
    return files


def run(paths: list[Path], verbose: bool = False):
    helpers: dict[str, list] = {}
    scanners = []
    errors: list[Finding] = []
    for f in gather_files(paths):
        try:
            text = f.read_text(errors="replace")
        except OSError:
            continue
        if "wire-schema:" not in text and "wire-helper:" not in text:
            continue
        sc = FileScanner(f, text, helpers)
        sc.collect_helpers()
        scanners.append(sc)

    # Pass 1: find annotations and function names (for ref resolution).
    CALL_REGISTRY.clear()
    pre: list[tuple[FileScanner, list[Codec]]] = []
    for sc in scanners:
        codecs = sc.scan()
        pre.append((sc, codecs))
        for c in codecs:
            if c.func:
                CALL_REGISTRY[(c.func, c.role)] = c.schema

    # Pass 2: re-extract with the registry populated.
    codecs: list[Codec] = []
    for sc, _ in pre:
        sc.errors.clear()
        for c in sc.scan():
            codecs.append(c)
        errors.extend(sc.errors)

    analyzer = Analyzer(codecs, verbose)
    findings = errors + analyzer.run()
    return analyzer, findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path)
    ap.add_argument("--root", type=Path, default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--manifest", type=Path, default=None)
    ap.add_argument("--check-manifest", action="store_true")
    ap.add_argument("--update-manifest", action="store_true")
    ap.add_argument("--dump", action="store_true",
                    help="print the extracted schemas and exit")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    root = args.root or Path(__file__).resolve().parent.parent.parent
    paths = args.paths or [root / "src"]
    manifest_path = args.manifest or Path(__file__).resolve().parent / "schemas.json"

    analyzer, findings = run(paths, args.verbose)

    if args.dump:
        fresh = build_manifest(analyzer, None)
        json.dump(fresh, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    if args.update_manifest:
        old = None
        if manifest_path.exists():
            try:
                old = json.loads(manifest_path.read_text())
            except json.JSONDecodeError:
                old = None
        fresh = build_manifest(analyzer, old)
        manifest_path.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"wirecheck: wrote {manifest_path} "
              f"({len(fresh['schemas'])} schemas)")

    if args.check_manifest and not args.update_manifest:
        findings.extend(check_manifest(analyzer, manifest_path))

    for f in findings:
        print(f.render())
    if args.verbose and not findings:
        print(f"wirecheck: {len(analyzer.codecs)} codecs across "
              f"{len(analyzer.by_schema)} schemas, all symmetric")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
