"""Code lines per Python file, and their total: lines that hold a token other than a
comment or whitespace, and are not part of a module, class or function docstring.

Usage: python3 .github/code_lines.py src/absieve/*.py
"""

import ast
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
total = 0
for path in sys.argv[1:]:
    with open(path, "rb") as fh:
        docstrings = set()
        for node in ast.walk(ast.parse(fh.read())):
            first = node.body[0] if isinstance(node, DOCUMENTED) and node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        fh.seek(0)
        code = set()
        for token in tokenize.tokenize(fh.readline):
            if token.type not in NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    lines = len(code - docstrings)
    total += lines
    print(f"{lines:6d} {path}")
print(f"{total:6d} total")
