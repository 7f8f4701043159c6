"""Mutated builtin configs end in an exit code, never in a traceback.

Each example takes one builtin config and deletes one key at any depth,
replaces one leaf with a value of the wrong type, or truncates the JSON text,
then runs `fracasym solve` on it at 32 steps.  A document that does not load
must be reported as exactly one `config error:` line.  Two exhaustive tests
set every number of every builtin config to NaN and to each infinity, and
write it as its JSON string.
"""

import contextlib
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fracasym import catalog, cli, harness
from fracasym.errors import ConfigError

BUILTIN_TEXTS = {ident: resources.files("fracasym.configs").joinpath(f"{ident}.json")
                 .read_text() for ident in catalog.builtin_config_ids()}


def _entries(node, prefix=()):
    """(path, value) of every entry below node, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,), value
        yield from _entries(value, prefix + (key,))


def _container(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_texts(draw):
    text = BUILTIN_TEXTS[draw(st.sampled_from(sorted(BUILTIN_TEXTS)))]
    mutation = draw(st.sampled_from(["delete", "replace", "truncate"]))
    if mutation == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    entries = list(_entries(doc))
    if mutation == "delete":
        path = draw(st.sampled_from(
            [p for p, _ in entries if isinstance(_container(doc, p), dict)]))
        del _container(doc, path)[path[-1]]
    else:
        path = draw(st.sampled_from(
            [p for p, v in entries if not isinstance(v, (dict, list))]))
        _container(doc, path)[path[-1]] = draw(st.sampled_from(["abc", None, [], {}]))
    return json.dumps(doc)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(mutated_texts())
def test_mutated_builtin_config_ends_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        try:
            harness.load_config(path)
            loads = True
        except ConfigError:
            loads = False
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", str(path), "--n-steps", "32", "--out-dir", tmp])
    assert code in (0, 1, 2)
    if not loads:
        lines = err.getvalue().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("config error:")


def _numeric_leaves():
    """(config id, path) of every number in the builtin configs."""
    for ident, text in sorted(BUILTIN_TEXTS.items()):
        for path, value in _entries(json.loads(text)):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield ident, path


def _not_one_config_error(ident, doc, tmp_path) -> str:
    """Run the builtin's command on doc at 32 steps: '' when it ends in exit 1,
    an empty stdout and exactly one `config error:` line, else what it ended in."""
    command = "study" if ident.startswith("manufactured_tau2") else "solve"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))  # NaN, Infinity and -Infinity literals
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(config), "--n-steps", "32",
                         "--out-dir", str(tmp_path / "out")])
    lines = err.getvalue().splitlines()
    if (code == 1 and out.getvalue() == "" and len(lines) == 1
            and lines[0].startswith("config error:")):
        return ""
    return f"exit {code}, stderr {lines}"


def test_every_non_finite_number_is_a_config_error(tmp_path):
    failures = []
    documents = 0
    for ident, path in _numeric_leaves():
        for bad in (math.nan, math.inf, -math.inf):
            doc = json.loads(BUILTIN_TEXTS[ident])
            _container(doc, path)[path[-1]] = bad
            documents += 1
            outcome = _not_one_config_error(ident, doc, tmp_path)
            if outcome:
                failures.append(f"{ident} {'.'.join(map(str, path))}={bad}: {outcome}")
    assert documents == 285
    assert not failures, f"{len(failures)} documents:\n" + "\n".join(failures)


def test_every_number_written_as_a_string_is_a_config_error(tmp_path):
    # a config number is a JSON number: "512" is no n_steps, "1_0" no tolerance
    failures = []
    documents = 0
    for ident, path in _numeric_leaves():
        doc = json.loads(BUILTIN_TEXTS[ident])
        container = _container(doc, path)
        container[path[-1]] = json.dumps(container[path[-1]])
        documents += 1
        outcome = _not_one_config_error(ident, doc, tmp_path)
        if outcome:
            failures.append(f"{ident} {'.'.join(map(str, path))}: {outcome}")
    assert documents == 95
    assert not failures, f"{len(failures)} documents:\n" + "\n".join(failures)
