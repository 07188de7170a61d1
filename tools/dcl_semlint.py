#!/usr/bin/env python3
"""dcl_semlint — the libclang-backed semantic scale-safety analyzer.

`tools/dcl_lint.py` is a comment-stripping lexer: fast, dependency-free,
and honest about what it cannot see (docs/ANALYSIS.md used to keep a
"known limitations" list). This sibling tool closes those blind spots by
analyzing the *type-resolved AST* that clang's Python bindings expose over
the already-exported `compile_commands.json`: a member declared
`std::unordered_set` in a header is recognized as unordered in every
translation unit that iterates it, an `EdgeId` flowing into an `int` is a
narrowing no matter how many typedefs stand in between, and a 32-bit
product is 32-bit even when the surrounding expression is 64.

Rules (all blocking; the shared allow() grammar below can justify a site):

  sem-unordered-iter  Iteration over a std::unordered_map/unordered_set —
                      a range-for whose range is unordered-typed, or a
                      .begin()/.cbegin() call on an unordered-typed object
                      (lookup-only uses never call begin). Hash-iteration
                      order is implementation-defined; anything it feeds
                      can leak into fingerprints. Type-resolved: members
                      declared in headers are seen across TU boundaries,
                      the case the lexer documents as invisible.
  sem-narrow          Implicit conversion of a 64-bit integer expression
                      into a 32-bit-or-smaller integer (variable init,
                      assignment, compound assignment, call argument,
                      return). Edge-scale values (EdgeId, sizes, offsets,
                      phase traffic) silently truncate at m > 2^31.
                      Expressions containing an integer literal are
                      assumed range-bounded by the author (`x & 0xff`,
                      `e % 64`); explicit casts are the author's claim —
                      route them through dcl::to_node / dcl::to_edge
                      (src/graph/ids.h) to make the claim Debug-checked.
  sem-index-32        A for-loop induction variable of 32-bit integer type
                      compared against a 64-bit bound (edge_count(),
                      .size() of an edge-scale container): the loop wraps
                      before it covers the range.
  sem-mul-width       A product computed in 32 bits and then widened to a
                      64-bit target (implicitly or by an explicit cast of
                      the completed product): the PR 6 out-degree² class —
                      70 000² already exceeds 2^32. Widen an operand
                      first, or use dcl::checked_mul64 (src/graph/ids.h).
                      Products with a literal operand are exempt.
  sem-hot-alloc       Inside a function annotated `// dcl-hot` (comment
                      block directly above the declaration): no operator
                      new, no malloc-family call, and no growing container
                      call (push_back/emplace_back/resize/insert/emplace/
                      append/assign) on a container that the same function
                      does not reserve(). The flattened enumeration and
                      intersection kernels stay machine-checked
                      allocation-free.
  bad-allow           Malformed allow() annotation (unknown rule name or
                      empty justification) — never allowlistable.

Allowlist grammar — shared with dcl_lint (a single vocabulary; each tool
validates the rule name against the union and suppresses only its own):

    // dcl-lint: allow(<rule>): <justification>

on the offending line or the line directly above it.

Degradation: the container may lack libclang (the bindings ship as
`python3-clang` + libclang, not in this repo). The tool then exits 77 —
the ctest entries declare SKIP_RETURN_CODE 77 and report SKIP with an
install hint — while CI installs the bindings and runs it as a blocking
job. See docs/BUILDING.md.

Exit codes: 0 clean, 1 findings, 2 usage/parse error, 77 libclang
unavailable. `--expect DIR` is the fixture self-test mode used by ctest:
findings must match `// dcl-semlint-expect: <rule>` markers line-exactly,
in both directions (tests/semlint_fixtures/).
"""

import argparse
import json
import os
import re
import sys

RULES = {
    "sem-unordered-iter":
        "iteration over an unordered container (type-resolved)",
    "sem-narrow": "implicit 64-bit -> 32-bit integer narrowing",
    "sem-index-32": "32-bit induction variable against a 64-bit bound",
    "sem-mul-width": "32-bit product widened to a 64-bit target",
    "sem-hot-alloc": "allocation inside a // dcl-hot function",
    "bad-allow": "malformed allow() annotation",
}

# dcl_lint's rules: legal in the shared allow() grammar, suppress nothing
# here. Kept in sync with tools/dcl_lint.py (RULES there, FOREIGN_RULES
# here and vice versa).
FOREIGN_RULES = {
    "wallclock",
    "unordered-iteration",
    "float-ledger",
    "raw-thread",
    "reserve-hint",
    "bad-allow",
}

ALLOW_RE = re.compile(
    r"//\s*dcl-lint:\s*allow\(([^)]*)\)\s*(?::\s*(.*?))?\s*$")
EXPECT_RE = re.compile(r"dcl-semlint-expect:\s*([\w-]+)")
HOT_RE = re.compile(r"//\s*dcl-hot\b")

GROWTH_METHODS = {
    "push_back", "emplace_back", "resize", "insert", "emplace", "append",
    "assign",
}
MALLOC_FAMILY = {"malloc", "calloc", "realloc", "aligned_alloc", "strdup"}

SKIP_EXIT = 77
INSTALL_HINT = ("install the clang Python bindings to run it "
                "(e.g. apt-get install python3-clang libclang1, or "
                "pip install libclang)")


def load_cindex():
    """Returns the clang.cindex module with a working libclang, or None."""
    try:
        from clang import cindex
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    # The bindings are present but the default soname did not resolve; try
    # the versioned names Debian/Ubuntu ship.
    for ver in range(21, 13, -1):
        for pattern in (f"libclang-{ver}.so.{ver}", f"libclang-{ver}.so.1",
                        f"libclang.so.{ver}", f"libclang-{ver}.so"):
            try:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(pattern)
                cindex.Index.create()
                return cindex
            except Exception:
                continue
    return None


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"


class FileAnnotations:
    """allow()/expect/dcl-hot markers of one source file (line-comment
    based, matching the dcl_lint grammar: an annotation must be a // line
    comment and the allow() must end its line)."""

    def __init__(self, abspath, relpath):
        self.relpath = relpath
        with open(abspath, encoding="utf-8") as f:
            self.lines = f.read().split("\n")
        self.allows = {}      # line -> set(rules)
        self.expects = []     # (line, rule)
        self.hot_lines = set()
        self.bad_allows = []
        for i, text in enumerate(self.lines, start=1):
            m = ALLOW_RE.search(text)
            if m:
                rules = [r.strip() for r in m.group(1).split(",")]
                justification = (m.group(2) or "").strip()
                bad = [r for r in rules
                       if r not in RULES and r not in FOREIGN_RULES]
                if bad or not justification:
                    why = (f"unknown rule(s) {', '.join(bad)}" if bad else
                           "missing justification text")
                    self.bad_allows.append(Finding(
                        relpath, i, "bad-allow",
                        f"allow() annotation rejected: {why} (format: "
                        f"// dcl-lint: allow(rule): why it is safe)"))
                else:
                    for target in (i, i + 1):
                        self.allows.setdefault(target, set()).update(rules)
            for em in EXPECT_RE.finditer(text):
                self.expects.append((i, em.group(1)))
            if HOT_RE.search(text):
                self.hot_lines.add(i)

    def allowed(self, line, rule):
        return rule in self.allows.get(line, set())

    def hot_marker_above(self, line):
        """True when a // dcl-hot marker sits in the contiguous comment
        block directly above `line` (doc comments may share the block)."""
        ln = line - 1
        while ln >= 1:
            text = self.lines[ln - 1].strip()
            if not (text.startswith("//") or text.startswith("template")):
                return False
            if ln in self.hot_lines:
                return True
            ln -= 1
        return False


class Analyzer:
    def __init__(self, cindex, root, interesting):
        self.ci = cindex
        self.root = os.path.realpath(root)
        self.interesting = interesting  # predicate over relpaths
        self.index = cindex.Index.create()
        self.findings = {}   # key -> Finding (dedup across TUs)
        self.annotations = {}  # relpath -> FileAnnotations
        self.parse_errors = []
        K = cindex.CursorKind
        self.cast_kinds = {
            K.CXX_STATIC_CAST_EXPR, K.CXX_REINTERPRET_CAST_EXPR,
            K.CXX_CONST_CAST_EXPR, K.CSTYLE_CAST_EXPR,
            K.CXX_FUNCTIONAL_CAST_EXPR,
        }
        self.func_kinds = {
            K.FUNCTION_DECL, K.CXX_METHOD, K.FUNCTION_TEMPLATE,
            K.CONSTRUCTOR, K.DESTRUCTOR, K.CONVERSION_FUNCTION,
        }
        T = cindex.TypeKind
        self.int_kinds = {
            T.CHAR_U, T.UCHAR, T.USHORT, T.UINT, T.ULONG, T.ULONGLONG,
            T.CHAR_S, T.SCHAR, T.SHORT, T.INT, T.LONG, T.LONGLONG,
        }

    # -- bookkeeping --------------------------------------------------------

    def relpath_of(self, cursor):
        loc = cursor.location
        if loc.file is None:
            return None
        ap = os.path.realpath(loc.file.name)
        if not ap.startswith(self.root + os.sep):
            return None
        rel = os.path.relpath(ap, self.root).replace(os.sep, "/")
        return rel if self.interesting(rel) else None

    def annot(self, relpath):
        if relpath not in self.annotations:
            self.annotations[relpath] = FileAnnotations(
                os.path.join(self.root, relpath), relpath)
        return self.annotations[relpath]

    def report(self, cursor, rule, message, relpath=None):
        rel = relpath or self.relpath_of(cursor)
        if rel is None:
            return
        line = cursor.location.line
        ann = self.annot(rel)
        if ann.allowed(line, rule):
            return
        f = Finding(rel, line, rule, message)
        self.findings.setdefault(f.key(), f)

    # -- type helpers -------------------------------------------------------

    def int_width(self, t):
        """Byte width of a (canonical) builtin integer type, else None.
        bool and enums are excluded on purpose."""
        ct = t.get_canonical()
        if ct.kind not in self.int_kinds:
            return None
        size = ct.get_size()
        return size if size in (1, 2, 4, 8) else None

    def strip_refs(self, t):
        T = self.ci.TypeKind
        while t.kind in (T.LVALUEREFERENCE, T.RVALUEREFERENCE):
            t = t.get_pointee()
        return t

    def is_unordered(self, t):
        spelling = self.strip_refs(t).get_canonical().spelling
        return ("unordered_map" in spelling or "unordered_set" in spelling or
                "unordered_multimap" in spelling or
                "unordered_multiset" in spelling)

    def descend(self, c):
        """Peels implicit-cast wrappers (UNEXPOSED_EXPR) and parens to the
        expression whose type is the pre-conversion type."""
        K = self.ci.CursorKind
        while c is not None and c.kind in (K.UNEXPOSED_EXPR, K.PAREN_EXPR):
            kids = list(c.get_children())
            if len(kids) != 1:
                break
            c = kids[0]
        return c

    def expr_children(self, c):
        return [k for k in c.get_children() if k.kind.is_expression()]

    def has_int_literal(self, c):
        """Any integer/char literal token inside the expression: treated as
        an author-provided range bound (x & 0xff, e % 64, i + 1)."""
        try:
            for tok in c.get_tokens():
                if tok.kind == self.ci.TokenKind.LITERAL and re.match(
                        r"^[0-9']", tok.spelling):
                    return True
        except Exception:
            pass
        return False

    def binop_operator(self, c):
        """Operator token of a binary operator cursor (the token between
        the operand extents) — cindex portable across llvm 14..18, which
        lack a stable opcode accessor."""
        kids = list(c.get_children())
        if len(kids) != 2:
            return None
        lhs_end = kids[0].extent.end.offset
        rhs_start = kids[1].extent.start.offset
        try:
            for tok in c.get_tokens():
                off = tok.extent.start.offset
                if lhs_end <= off < rhs_start and tok.spelling not in "()":
                    return tok.spelling
        except Exception:
            pass
        return None

    def source_text(self, c):
        try:
            return "".join(t.spelling for t in c.get_tokens())
        except Exception:
            return ""

    # -- conversion rules (sem-narrow / sem-mul-width) ----------------------

    def narrow_product_operand(self, c):
        """The descended cursor if it is a 32-bit (or smaller) `*` product
        without a literal operand, else None."""
        K = self.ci.CursorKind
        if c.kind != K.BINARY_OPERATOR:
            return None
        w = self.int_width(c.type)
        if w not in (1, 2, 4):
            return None
        if self.binop_operator(c) != "*":
            return None
        kids = list(c.get_children())
        if len(kids) == 2:
            for kid in kids:
                if self.descend(kid).kind == K.INTEGER_LITERAL:
                    return None
        return c

    def check_conversion(self, target_type, expr, what):
        """One conversion site: `expr` converts to `target_type`."""
        if expr is None or target_type is None:
            return
        tw = self.int_width(target_type)
        if tw is None:
            return
        e = self.descend(expr)
        if e is None:
            return
        if e.kind in self.cast_kinds:
            return  # explicit cast: the author's (to_node-checkable) claim
        sw = self.int_width(e.type)
        if sw is None:
            return
        if sw == 8 and tw in (1, 2, 4):
            if self.has_int_literal(e):
                return
            self.report(
                expr, "sem-narrow",
                f"implicit narrowing of a 64-bit value into a {tw * 8}-bit "
                f"{what} — truncates at edge scale; widen the target or "
                f"route through dcl::to_node/to_edge (src/graph/ids.h)")
        elif tw == 8 and self.narrow_product_operand(e) is not None:
            self.report(
                expr, "sem-mul-width",
                f"product computed in {sw * 8} bits, then widened to a "
                f"64-bit {what} — the overflow already happened; widen an "
                f"operand or use dcl::checked_mul64 (src/graph/ids.h)")

    def check_explicit_cast(self, c):
        """static_cast<uint64>(a * b): the product overflowed before the
        cast widened it."""
        tw = self.int_width(c.type)
        if tw != 8:
            return
        exprs = self.expr_children(c)
        if not exprs:
            return
        inner = self.descend(exprs[-1])
        if inner is not None and self.narrow_product_operand(inner) is not None:
            sw = self.int_width(inner.type)
            self.report(
                c, "sem-mul-width",
                f"explicit cast widens a product computed in {sw * 8} bits "
                f"— the overflow already happened; widen an operand or use "
                f"dcl::checked_mul64 (src/graph/ids.h)")

    def check_call_args(self, c):
        ref = c.referenced
        if ref is None:
            return
        ftype = ref.type
        if ftype is None or ftype.kind != self.ci.TypeKind.FUNCTIONPROTO:
            return
        try:
            params = list(ftype.argument_types())
            args = list(c.get_arguments())
        except Exception:
            return
        for i, arg in enumerate(args):
            if i >= len(params):
                break  # variadic tail
            self.check_conversion(params[i], arg,
                                  f"argument of '{ref.spelling}'")

    # -- sem-unordered-iter -------------------------------------------------

    def check_range_for(self, c):
        for kid in c.get_children():
            if not kid.kind.is_expression():
                continue
            e = self.descend(kid)
            if e is not None and self.is_unordered(e.type):
                self.report(
                    c, "sem-unordered-iter",
                    "range-for over an unordered container — hash iteration "
                    "order is implementation-defined; use std::set/std::map "
                    "or collect-and-sort")
                return
            break  # only the range expression, not the body

    def check_begin_call(self, c):
        if c.spelling not in ("begin", "cbegin"):
            return
        kids = list(c.get_children())
        if not kids:
            return
        member = kids[0]
        base = next(iter(member.get_children()), None)
        if base is not None and self.is_unordered(base.type):
            self.report(
                c, "sem-unordered-iter",
                f"'.{c.spelling}()' on an unordered container — iteration "
                f"order is implementation-defined; use std::set/std::map or "
                f"collect-and-sort")

    # -- sem-index-32 -------------------------------------------------------

    def check_for_stmt(self, c):
        K = self.ci.CursorKind
        kids = list(c.get_children())
        var = None
        cond = None
        for kid in kids:
            if var is None and kid.kind == K.DECL_STMT:
                decls = [d for d in kid.get_children()
                         if d.kind == K.VAR_DECL]
                if len(decls) == 1 and self.int_width(
                        decls[0].type) in (1, 2, 4):
                    var = decls[0]
                continue
            if var is not None and cond is None and \
                    kid.kind == K.BINARY_OPERATOR:
                cond = kid
                break
        if var is None or cond is None:
            return
        var_loc = (var.location.file.name if var.location.file else "",
                   var.location.offset)

        def refers_to_var(e):
            e = self.descend(e)
            if e is None or e.kind != K.DECL_REF_EXPR:
                return False
            ref = e.referenced
            if ref is None or ref.location.file is None:
                return False
            return (ref.location.file.name, ref.location.offset) == var_loc

        def scan(e):
            if e.kind == K.BINARY_OPERATOR:
                kids2 = list(e.get_children())
                if len(kids2) == 2:
                    for side, other in ((kids2[0], kids2[1]),
                                        (kids2[1], kids2[0])):
                        if not refers_to_var(side):
                            continue
                        o = self.descend(other)
                        if o is None or o.kind == K.INTEGER_LITERAL:
                            continue
                        if self.int_width(o.type) == 8:
                            self.report(
                                c, "sem-index-32",
                                f"loop induction variable "
                                f"'{var.spelling}' is "
                                f"{self.int_width(var.type) * 8}-bit but "
                                f"is compared against a 64-bit bound — "
                                f"wraps before covering an edge-scale "
                                f"range; widen the induction type")
                            return True
            for kid in e.get_children():
                if kid.kind.is_expression() and scan(kid):
                    return True
            return False

        scan(cond)

    # -- sem-hot-alloc ------------------------------------------------------

    def member_call_base_text(self, c):
        kids = list(c.get_children())
        if not kids:
            return ""
        base = next(iter(kids[0].get_children()), None)
        return self.source_text(base) if base is not None else ""

    def check_hot_function(self, func):
        rel = self.relpath_of(func)
        if rel is None:
            return
        ann = self.annot(rel)
        if not ann.hot_marker_above(func.extent.start.line):
            return
        body = [k for k in func.get_children()
                if k.kind == self.ci.CursorKind.COMPOUND_STMT]
        if not body:
            return
        K = self.ci.CursorKind
        reserved = set()

        def collect_reserves(c):
            if c.kind == K.CALL_EXPR and c.spelling == "reserve":
                reserved.add(self.member_call_base_text(c))
            for kid in c.get_children():
                collect_reserves(kid)

        def flag_allocs(c):
            if c.kind == K.CXX_NEW_EXPR:
                self.report(c, "sem-hot-alloc",
                            "operator new inside a // dcl-hot kernel — "
                            "allocate in the caller and reuse")
            elif c.kind == K.CALL_EXPR:
                name = c.spelling
                if name in MALLOC_FAMILY:
                    self.report(c, "sem-hot-alloc",
                                f"'{name}' inside a // dcl-hot kernel — "
                                f"allocate in the caller and reuse")
                elif name in GROWTH_METHODS:
                    base = self.member_call_base_text(c)
                    if base and base not in reserved:
                        self.report(
                            c, "sem-hot-alloc",
                            f"'{base}.{name}(...)' may grow inside a "
                            f"// dcl-hot kernel with no "
                            f"'{base}.reserve(...)' in the function — "
                            f"reserve first or justify with an allow()")
            for kid in c.get_children():
                flag_allocs(kid)

        for b in body:
            collect_reserves(b)
        for b in body:
            flag_allocs(b)

    # -- walk ---------------------------------------------------------------

    def walk(self, c, func_stack):
        K = self.ci.CursorKind
        kind = c.kind
        pushed = False
        if kind in self.func_kinds or kind == K.LAMBDA_EXPR:
            func_stack.append(c)
            pushed = True
            if kind in self.func_kinds:
                self.check_hot_function(c)
        if kind == K.CXX_FOR_RANGE_STMT:
            self.check_range_for(c)
        elif kind == K.FOR_STMT:
            self.check_for_stmt(c)
        elif kind == K.CALL_EXPR:
            self.check_begin_call(c)
            self.check_call_args(c)
        elif kind == K.VAR_DECL:
            exprs = self.expr_children(c)
            if exprs:
                self.check_conversion(c.type, exprs[-1],
                                      f"initializer of '{c.spelling}'")
        elif kind == K.BINARY_OPERATOR:
            op = self.binop_operator(c)
            if op == "=":
                kids = list(c.get_children())
                self.check_conversion(kids[0].type, kids[1], "assignment")
        elif kind == K.COMPOUND_ASSIGNMENT_OPERATOR:
            kids = list(c.get_children())
            if len(kids) == 2:
                self.check_conversion(kids[0].type, kids[1],
                                      "compound assignment")
        elif kind == K.RETURN_STMT:
            exprs = self.expr_children(c)
            if exprs and func_stack:
                f = func_stack[-1]
                try:
                    rt = f.result_type
                except Exception:
                    rt = None
                self.check_conversion(rt, exprs[0], "return value")
        elif kind in self.cast_kinds:
            self.check_explicit_cast(c)

        for kid in c.get_children():
            self.walk(kid, func_stack)
        if pushed:
            func_stack.pop()

    def analyze_tu(self, path, args):
        try:
            tu = self.index.parse(path, args=args)
        except Exception as e:
            self.parse_errors.append(f"{path}: parse failed: {e}")
            return
        fatal = [d for d in tu.diagnostics if d.severity >= 3]
        if fatal:
            msgs = "; ".join(str(d) for d in fatal[:5])
            self.parse_errors.append(f"{path}: {msgs}")
            return
        for top in tu.cursor.get_children():
            if self.relpath_of(top) is not None:
                self.walk(top, [])

    def results(self):
        out = list(self.findings.values())
        for ann in self.annotations.values():
            out.extend(ann.bad_allows)
        out.sort(key=lambda f: (f.path, f.line, f.rule))
        return out


# ---------------------------------------------------------------------------
# compile_commands.json handling
# ---------------------------------------------------------------------------

KEEP_WITH_VALUE = {"-I", "-isystem", "-include", "-D", "-U"}


def clang_args_from_command(entry):
    """Filters a compile command down to the flags clang's parser needs
    (includes, defines, language standard) — toolchain-specific codegen
    and warning flags from the real compiler are dropped."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        import shlex
        argv = shlex.split(entry["command"])
    directory = entry.get("directory", ".")
    out = []
    i = 1  # skip the compiler
    while i < len(argv):
        a = argv[i]
        if a in KEEP_WITH_VALUE:
            val = argv[i + 1] if i + 1 < len(argv) else ""
            if a in ("-I", "-isystem", "-include") and val and \
                    not os.path.isabs(val):
                val = os.path.join(directory, val)
            out += [a, val]
            i += 2
            continue
        for prefix in ("-I", "-D", "-U", "-std="):
            if a.startswith(prefix) and len(a) > len(prefix):
                if prefix == "-I" and not os.path.isabs(a[2:]):
                    a = "-I" + os.path.join(directory, a[2:])
                out.append(a)
                break
        i += 1
    if not any(a.startswith("-std=") for a in out):
        out.append("-std=c++20")
    return out


def load_compile_commands(build_dir):
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_src_scan(cindex, root, build_dir, paths):
    prefixes = tuple(p.rstrip("/") for p in paths)

    def interesting(rel):
        return any(rel == p or rel.startswith(p + "/") for p in prefixes)

    analyzer = Analyzer(cindex, root, interesting)
    entries = load_compile_commands(build_dir)
    seen = set()
    for entry in sorted(entries, key=lambda e: e["file"]):
        ap = os.path.realpath(
            os.path.join(entry.get("directory", "."), entry["file"]))
        rel = os.path.relpath(ap, os.path.realpath(root)).replace(os.sep, "/")
        if not interesting(rel) or ap in seen:
            continue
        seen.add(ap)
        analyzer.analyze_tu(ap, clang_args_from_command(entry))
    if not seen:
        raise FileNotFoundError(
            f"no compile_commands.json entry matches {paths} — stale build "
            f"dir? (re-run cmake: tools/run_semlint.sh does this for you)")
    return analyzer


def run_expect(cindex, fixture_dir):
    fixture_dir = os.path.realpath(fixture_dir)
    root = fixture_dir

    def interesting(rel):
        return not rel.startswith("..")

    analyzer = Analyzer(cindex, root, interesting)
    tus = sorted(f for f in os.listdir(fixture_dir) if f.endswith(".cpp"))
    if not tus:
        print(f"dcl_semlint: no fixture TUs in {fixture_dir}",
              file=sys.stderr)
        return 2
    for name in tus:
        analyzer.analyze_tu(os.path.join(fixture_dir, name),
                            ["-std=c++20", "-I", fixture_dir])
    if analyzer.parse_errors:
        for e in analyzer.parse_errors:
            print(f"dcl_semlint: {e}", file=sys.stderr)
        return 2
    expected = set()
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith((".cpp", ".h")):
            continue
        ann = analyzer.annot(name)
        for ln, rule in ann.expects:
            expected.add((name, ln, rule))
    actual = {f.key() for f in analyzer.results()}
    missing = sorted(expected - actual)
    surprise = sorted(actual - expected)
    for path, ln, rule in missing:
        print(f"{path}:{ln}: expected [{rule}] but the analyzer was silent")
    for path, ln, rule in surprise:
        print(f"{path}:{ln}: unexpected [{rule}] finding")
    if missing or surprise:
        print(f"self-test FAILED: {len(missing)} missed, "
              f"{len(surprise)} unexpected")
        return 1
    print(f"self-test OK: {len(expected)} planted finding(s) all reported, "
          f"nothing else flagged")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="dcl_semlint.py",
        description="libclang semantic scale-safety analyzer "
                    "(see docs/ANALYSIS.md)")
    ap.add_argument("paths", nargs="*",
                    help="repo-relative path prefixes to analyze "
                         "(default: src tools/dcl_cli.cpp)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--build-dir", "-p", default=None,
                    help="build dir containing compile_commands.json "
                         "(default: <root>/build)")
    ap.add_argument("--expect", metavar="DIR", default=None,
                    help="fixture self-test mode over DIR")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    args = ap.parse_args(argv[1:])

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:20s} [error] {desc}")
        return 0

    cindex = load_cindex()
    if cindex is None:
        print(f"dcl_semlint: SKIP — clang Python bindings / libclang not "
              f"available; {INSTALL_HINT}")
        return SKIP_EXIT

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.expect:
        return run_expect(cindex, args.expect)

    build_dir = args.build_dir or os.path.join(root, "build")
    paths = args.paths or ["src", "tools/dcl_cli.cpp"]
    try:
        analyzer = run_src_scan(cindex, root, build_dir, paths)
    except FileNotFoundError as e:
        print(f"dcl_semlint: {e}", file=sys.stderr)
        return 2
    if analyzer.parse_errors:
        for e in analyzer.parse_errors:
            print(f"dcl_semlint: {e}", file=sys.stderr)
        return 2
    findings = analyzer.results()
    for f in findings:
        print(f)
    if findings:
        print(f"dcl_semlint: {len(findings)} finding(s)")
        return 1
    print("dcl_semlint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
