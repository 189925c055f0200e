#!/usr/bin/env python3
"""Lists the functions and classes declared in src/**/*.h that nothing uses.

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

Each output line reads `path:line kind Class::name`.  With --allowlist
FILE (one `Class::name  reason` per line, `#` comments) the listed
symbols are printed as allowed, and the exit status is 1 when any symbol
is unused and not on the list, or an entry gives no reason.  Allowlist
entries the scan does not report (fields it cannot see, or symbols that
gained a caller) are printed as notes.
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
    for path in program_files():
        # Directives stay: a macro body's calls are references.
        identifiers[path] = set(
            IDENT.findall(strip_source(path.read_text(), directives=True)))

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
    unused.sort()

    allowed = set()
    failures = 0
    if args.allowlist:
        for raw in args.allowlist.read_text().splitlines():
            entry = raw.split("#", 1)[0].strip()
            if entry:
                symbol, _, reason = entry.partition(" ")
                allowed.add(symbol)
                if not reason.strip():
                    print(f"allowlist entry {symbol} gives no reason")
                    failures += 1

    for path, line, kind, qualified in unused:
        tag = "allowed" if qualified in allowed else "UNUSED"
        failures += tag == "UNUSED"
        print(f"{path}:{line} {kind} {qualified} [{tag}]")
    reported = {qualified for *_, qualified in unused}
    for symbol in sorted(allowed):
        if symbol not in reported:
            print(f"note: allowlisted {symbol} is not reported by the scan")
    print(f"{len(unused)} unused symbol(s), {failures} not on the allowlist "
          "or without a reason")
    return 1 if failures and args.allowlist else 0


if __name__ == "__main__":
    sys.exit(main())
