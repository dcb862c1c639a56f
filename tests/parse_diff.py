"""Compare the expression parsers of two checkouts on random input.

    python3 tests/parse_diff.py PARENT_SRC [N]

Loads gbsdelab/expr.py from PARENT_SRC (the src/ directory of another
checkout) and from the src/ next to this file, under distinct module
names, and parses N seeded strings (default 100000) with both: half
random strings over the expression alphabet, half printed random trees
with a few random edits.  Prints how many strings differ in accept or
reject and how many are accepted by both with different trees, with
examples.  Two kinds of rejection are counted apart: by Python's limit
of 200 nested parentheses, and of text with a non-ASCII character (the
parent reads a digit such as '\u0663' as 3).  Not collected by pytest (the name does not start with
test_).
"""

import importlib.util
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

# token alphabet: the language's own tokens, near misses from Python's
# grammar, and characters that neither side accepts
TOKENS = (
    list("0123456789") * 3 + ["0", "00", "07", ".", ".5", "1.", "e", "E", "e-", "E+"]
    + ["x", "y", "z", "t"] * 3
    + ["pow", "abs", "min", "max", "sqrt", "exp", "w", "sin", "_", "j", "J",
       "x0", "True", "None", "if", "else", "not", "and", "or", "in", "is",
       "lambda", "await", "yield", "for", "0x", "0b", "0o", "_0"]
    + list("+-*/") * 3 + ["**", "//"]
    + list("(),") * 3
    + [" ", " ", "\t", "\n", "  "]
    + list("^#=[]<>%!@~:;'\"\\{}") + ["é", "٣", " "]
)


def _load(src_dir, name):
    path = os.path.join(src_dir, "gbsdelab", "expr.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _outcome(mod, text):
    """("ok", tree repr) or ("err", message).  The tree classes of the two
    modules share names, so equal reprs mean equal trees."""
    try:
        return "ok", repr(mod.parse(text))
    except (ValueError, RecursionError) as e:
        return "err", f"{type(e).__name__}: {e}"


def _random_string(rng):
    return "".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 12)))


def _random_tree(mod, rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return mod.Var(rng.choice(mod.VARIABLES))
        return mod.Num(rng.choice([0.0, 1.0, 2.5, 7.0, 0.001, 1e-7, 3e20, 10.0]))
    kind = rng.randrange(3)
    if kind == 0:
        return mod.Neg(_random_tree(mod, rng, depth - 1))
    if kind == 1:
        return mod.Bin(rng.choice("+-*/"), _random_tree(mod, rng, depth - 1),
                       _random_tree(mod, rng, depth - 1))
    name = rng.choice(sorted(mod.FUNCTIONS))
    args = tuple(_random_tree(mod, rng, depth - 1) for _ in range(mod.FUNCTIONS[name]))
    return mod.Call(name, args)


def _mutated_tree(mod, rng):
    """A printed random tree with up to three edits: delete, insert,
    replace or swap characters, or duplicate a slice."""
    s = mod.to_str(_random_tree(mod, rng, rng.randint(0, 5)))
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(s) + 1)
        op = rng.randrange(5)
        if op == 0:
            s = s[:i] + s[i + 1:]
        elif op == 1:
            s = s[:i] + rng.choice(TOKENS) + s[i:]
        elif op == 2:
            s = s[:i] + rng.choice(TOKENS) + s[i + 1:]
        elif op == 3 and i + 1 < len(s):
            s = s[:i] + s[i + 1] + s[i] + s[i + 2:]
        else:
            j = rng.randrange(len(s) + 1)
            s = s[:i] + s[min(i, j):max(i, j)] + s[i:]
    return s


def main(parent_src, n):
    old = _load(parent_src, "_expr_parent")
    new = _load(os.path.join(ROOT, "src"), "_expr_change")
    rng = random.Random(20181)
    counts = {"strings": 0, "accepted": 0, "accept_reject": 0, "tree": 0,
              "nesting_limit": 0, "non_ascii": 0}
    examples = {key: [] for key in list(counts)[2:]}
    deep = [d * "(" + "x" + d * ")" for d in (199, 200, 201, 300)]
    deep += [d * "abs(" + "x" + d * ")" for d in (199, 200, 201, 300)]
    randoms = (_random_string(rng) if k % 2 else _mutated_tree(old, rng)
               for k in range(n))
    for text in (*deep, *randoms):
        a, b = _outcome(old, text), _outcome(new, text)
        counts["strings"] += 1
        counts["accepted"] += a[0] == b[0] == "ok"
        if a[0] != b[0] and "too many nested parentheses" in b[1]:
            key = "nesting_limit"
        elif a[0] != b[0]:
            key = "accept_reject" if text.isascii() else "non_ascii"
        elif a[0] == "ok" and a[1] != b[1]:
            key = "tree"
        else:
            continue
        counts[key] += 1
        if len(examples[key]) < 5:
            examples[key].append((text[:80], a[1][:80], b[1][:80]))
    for key, value in counts.items():
        print(f"{key}: {value}")
    for key, rows in examples.items():
        for text, a, b in rows:
            print(f"  {key}: {text!r}\n    parent: {a}\n    change: {b}")


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    main(sys.argv[1], int(sys.argv[2]) if len(sys.argv) == 3 else 100000)
