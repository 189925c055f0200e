#!/usr/bin/env python3
"""Lists the functions, classes and option fields in src/**/*.h that nothing uses.

usage: python3 tools/unused_symbols.py [--allowlist FILE]

A symbol is unused when its name appears in no program file outside its
own header, the .cpp of the same name next to it, and tests/.  The
program files are every .h and .cpp under src/, bench/, examples/ and
perfbench/.  Declarations are found by a brace-aware scan of each header
with comments, strings and preprocessor lines stripped (macro bodies
still count as references elsewhere).  Member functions are reported as
Class::name.  Private and protected members, namespace detail,
constructors, destructors, operators and deleted or defaulted members
are skipped.  A class also counts as used when its own header names it
outside its definition (a ModelHandle alias, a getter's return type):
callers reach it through that name without spelling it.  Names are
matched as whole identifiers, so a name that another symbol shares
counts as used: the scan can miss dead code, but it does not report a
symbol that program code calls.

Settings get a rule of their own.  A data member of a struct named
*Options or *Config is reported as Struct::name, kind "field", when no
program file outside its own .h/.cpp writes it: `.name =`, `->name =`
(compound assignments too), or a member path through it such as
`.ldafp.bnb.max_nodes =`, which writes `ldafp` and `bnb` as well.  A
designated initializer `{.name = ...}` counts; a positional aggregate
initializer does not.  It is reported as kind "inert-field" when no
file in src/ reads it (`.name` or `->name` other than as a write).  A
field whose name another struct's field shares counts as written by
that field's writes, so this rule can miss dead settings too.

Each output line reads `path:line kind Class::name`.  With --allowlist
FILE (one `Class::name  reason` per line, `#` comments) the listed
symbols are printed as allowed, and the exit status is 1 when any symbol
is unused and not on the list, or an entry gives no reason, or the list
has gone stale: an entry the scan does not report (deleted, or gained a
caller), or an entry whose reason starts with "test-only" while its own
.cpp calls it (then it is internal).
"""

import argparse
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "bench", "examples", "perfbench")
KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "decltype",
    "static_assert", "catch", "noexcept", "throw", "new", "delete", "defined",
    "alignas", "requires", "explicit", "operator", "template", "typename",
}
IDENT = re.compile(r"[A-Za-z_]\w*")
ACCESS = re.compile(r"^\s*(public|private|protected)\s*:(?!:)")
CLASS_HEAD = re.compile(r"\b(class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)\s*"
                        r"(?:final\s*)?(?::[^{]*)?$")
NAMESPACE_HEAD = re.compile(r"\bnamespace\b")
OPEN_PAREN = re.compile(r"\s*\(")
OPTION_HEAD = re.compile(r"\bstruct\s+(\w+(?:Options|Config))\s*(?:final\s*)?\{")
NOT_A_FIELD = re.compile(r"(static|using|typedef|friend|enum|struct|class|"
                         r"template)\b")
ASSIGN = r"\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)"


def strip_source(text, directives=False):
    """Blanks comments, string and char literals and (unless
    `directives`) preprocessor lines, keeping newlines so line numbers
    survive."""
    out = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#" and not directives:
            # Preprocessor directive, with backslash continuations.
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    out.append("\n")
                    i += 2
                    continue
                i += 1
            continue
        if c == "/" and text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
            continue
        if c in "\"'":
            if c == '"' and i > 0 and text[i - 1] == "R":
                # Raw string literal R"delim( ... )delim".
                open_paren = text.find("(", i)
                delim = text[i + 1:open_paren]
                end = text.find(")" + delim + '"', open_paren)
                end = n if end < 0 else end + len(delim) + 2
            else:
                end = i + 1
                while end < n and text[end] != c:
                    end += 2 if text[end] == "\\" else 1
                end += 1
            out.append(c + " " + c + "\n" * text.count("\n", i, end))
            i = end
            continue
        if c == "\n":
            at_line_start = True
        elif not c.isspace():
            at_line_start = False
        out.append(c)
        i += 1
    return "".join(out)


def function_name(stmt):
    """The declared function's name when `stmt` (text before its `;` or
    `{`, at namespace or class scope) declares one, else None."""
    if "(" not in stmt:
        return None
    if re.search(r"=\s*(delete|default|0)\s*$", stmt):
        return None
    if re.match(r"(using|typedef|friend|return|static_assert|enum)\b", stmt):
        return None
    depth = 0
    for pos, c in enumerate(stmt):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "=" and depth == 0:
            return None  # a variable with an initializer
        elif c == "(" and depth <= 0:
            head = stmt[:pos].rstrip()
            match = re.search(r"(~?\b[A-Za-z_]\w*)$", head)
            if not match:
                return None
            name = match.group(1)
            before = head[:match.start()].rstrip()
            if (name in KEYWORDS or name.startswith("~")
                    or before.endswith("operator") or name.isupper()
                    or not before):
                return None  # constructor, macro call or expression
            return name
    return None


def declarations(text):
    """Yields (line, kind, qualified name, span) for each class and
    function declared in the stripped header `text` outside function
    bodies; a class's span is its definition's [begin, end) offsets."""
    # ("ns" | "class" | "block", name, public?) per open brace; a class
    # entry's flag follows its access specifiers.
    stack = []
    stmt = []
    started = False
    line = 1
    stmt_line = 1
    stmt_begin = 0
    class_heads = []  # (line, qualified name, begin) of each open class

    def class_path():
        return [name for kind, name, _ in stack if kind == "class"]

    def at_public_scope():
        return all(kind != "block" and public for kind, _, public in stack)

    for pos, c in enumerate(text):
        if c == "\n":
            line += 1
        if c in ";{}":
            body = "".join(stmt)
            access = ACCESS.match(body)
            if access:
                if stack and stack[-1][0] == "class":
                    stack[-1] = (*stack[-1][:2], access.group(1) == "public")
                body = body[access.end():]
            stripped = body.strip()
            if c == "}":
                if stack and stack.pop()[0] == "class":
                    head_line, qualified, begin = class_heads.pop()
                    yield head_line, "class", qualified, (begin, pos + 1)
            elif at_public_scope():
                enclosing = class_path()
                if c == "{":
                    head = CLASS_HEAD.search(stripped)
                    if head and not stripped.startswith("enum"):
                        name = head.group(2)
                        class_heads.append((stmt_line,
                                            "::".join(enclosing + [name]),
                                            stmt_begin))
                        stack.append(("class", name, head.group(1) == "struct"))
                    elif NAMESPACE_HEAD.search(stripped):
                        detail = re.search(r"\bdetail\s*$", stripped)
                        stack.append(("ns", None, detail is None))
                    else:
                        stack.append(("block", None, True))
                name = function_name(stripped)
                if name and (not enclosing or name != enclosing[-1]):
                    yield (stmt_line, "function",
                           "::".join(enclosing + [name]), None)
            elif c == "{":
                stack.append(("block", None, True))
            stmt = []
            started = False
            continue
        if not started and not c.isspace():
            stmt_line = line
            stmt_begin = pos
            started = True
        stmt.append(c)


def called_in(text, name):
    """True when the stripped source `text` calls `name` (the name, then
    `(`) inside a function or class body, not just where it is declared
    or defined at namespace scope."""
    stack = []  # True per open brace that opens a namespace
    stmt = []
    for token in re.finditer(r"[A-Za-z_]\w*|[{};]", text):
        tok = token.group()
        if tok == "{":
            stack.append("namespace" in stmt or "extern" in stmt)
            stmt = []
        elif tok == "}":
            if stack:
                stack.pop()
            stmt = []
        elif tok == ";":
            stmt = []
        else:
            if (tok == name and not all(stack)
                    and OPEN_PAREN.match(text, token.end())):
                return True
            stmt.append(tok)
    return False


def option_fields(text):
    """Yields (line, struct, field) for each data member of a struct
    named *Options or *Config in the stripped header `text`."""
    for head in OPTION_HEAD.finditer(text):
        depth = 0
        begin = head.end()
        for pos in range(head.end(), len(text)):
            c = text[pos]
            if c in "({":
                depth += 1
                continue
            if c in ")}" and depth > 0:
                depth -= 1
                stmt = text[begin:pos]
                if c == ")" or depth > 0 or not is_function(stmt):
                    continue
                begin = pos + 1  # an inline member function's body
                continue
            if c == "}":
                break  # the struct's own closing brace
            if c != ";" or depth > 0:
                continue
            access = ACCESS.match(text[begin:pos])
            start = begin + (access.end() if access else 0)
            stmt = text[start:pos].strip()
            start = text.find(stmt[:1], start, pos)
            begin = pos + 1
            if not stmt or NOT_A_FIELD.match(stmt) or is_function(stmt):
                continue
            decl = re.split(r"[={]", stmt, maxsplit=1)[0]
            name = IDENT.findall(re.sub(r"\[[^\]]*\]", "", decl))
            if name:
                yield text.count("\n", 0, start) + 1, head.group(1), name[-1]


def is_function(stmt):
    """True when the member declaration `stmt` declares a function: a
    `(` before its initializer, outside template arguments."""
    decl = re.split(r"[={]", stmt, maxsplit=1)[0]
    while True:
        bare = re.sub(r"<[^<>]*>", "", decl)
        if bare == decl:
            return "(" in bare
        decl = bare


def field_writes(text, name):
    """True when the stripped source `text` assigns field `name`
    directly or through a member path."""
    return re.search(r"(?:\.|->)\s*" + name + r"(?:\s*(?:\.|->)\s*\w+|"
                     r"\s*\[[^\]]*\])*" + ASSIGN, text) is not None


def field_reads(text, name):
    """True when the stripped source `text` reads field `name`."""
    return re.search(r"(?:\.|->)\s*" + name + r"\b(?!" + ASSIGN + ")",
                     text) is not None


def program_files():
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".h", ".cpp") and path.is_file():
                yield path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--allowlist", type=Path)
    args = parser.parse_args()

    identifiers = {}
    sources = {}
    for path in program_files():
        # Directives stay: a macro body's calls are references.
        sources[path] = strip_source(path.read_text(), directives=True)
        identifiers[path] = set(IDENT.findall(sources[path]))

    unused = []
    for header in sorted((ROOT / "src").rglob("*.h")):
        own = {header, header.with_suffix(".cpp")}
        text = strip_source(header.read_text())
        for line, kind, qualified, span in declarations(text):
            name = qualified.split("::")[-1]
            if any(name in ids for path, ids in identifiers.items()
                   if path not in own):
                continue
            if span and name in IDENT.findall(text[:span[0]] + text[span[1]:]):
                continue
            unused.append((header.relative_to(ROOT), line, kind, qualified))
        for line, struct, name in option_fields(text):
            if not any(field_reads(src, name)
                       for path, src in sources.items()
                       if path.is_relative_to(ROOT / "src")):
                kind = "inert-field"
            elif not any(field_writes(src, name)
                         for path, src in sources.items() if path not in own):
                kind = "field"
            else:
                continue
            unused.append((header.relative_to(ROOT), line, kind,
                           f"{struct}::{name}"))
    unused.sort()

    allowed = {}  # symbol -> reason
    failures = 0
    if args.allowlist:
        for raw in args.allowlist.read_text().splitlines():
            entry = raw.split("#", 1)[0].strip()
            if entry:
                symbol, _, reason = entry.partition(" ")
                allowed[symbol] = reason.strip()
                if not reason.strip():
                    print(f"allowlist entry {symbol} gives no reason")
                    failures += 1

    for path, line, kind, qualified in unused:
        tag = "allowed" if qualified in allowed else "UNUSED"
        failures += tag == "UNUSED"
        print(f"{path}:{line} {kind} {qualified} [{tag}]")
        own_cpp = ROOT / path.with_suffix(".cpp")
        if (allowed.get(qualified, "").startswith("test-only")
                and own_cpp.is_file()
                and called_in(strip_source(own_cpp.read_text()),
                              qualified.split("::")[-1])):
            print(f"allowlist entry {qualified} says test-only, but "
                  f"{own_cpp.relative_to(ROOT)} calls it")
            failures += 1
    reported = {qualified for *_, qualified in unused}
    for symbol, reason in sorted(allowed.items()):
        if symbol not in reported:
            print(f"allowlist entry {symbol} is not reported by the scan")
            failures += 1
    print(f"{len(unused)} unused symbol(s), {failures} not on the allowlist, "
          "without a reason or stale")
    return 1 if failures and args.allowlist else 0


if __name__ == "__main__":
    sys.exit(main())
