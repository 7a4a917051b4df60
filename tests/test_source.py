import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import elicit

PACKAGE = pathlib.Path(elicit.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a check the program relies on
    # must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/elicit: {found}"


def test_package_raises_no_system_exit():
    # bad input ends in cli.main's one-line `error:` message, which a
    # SystemExit raised below it would bypass
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        and "SystemExit" in ast.unparse(node.exc)
    ]
    assert not found, f"raise SystemExit in src/elicit: {found}"


def test_only_data_reads_the_matrix_layout():
    # the CSR arrays are data.RatingMatrix's business; other modules go
    # through its methods (positives, dense, row_blocks, item_counts, nnz)
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "data.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("rows", "indptr")
    ]
    assert not found, f"matrix layout read outside data.py: {found}"


def test_cli_import_loads_no_scipy_and_prepare_no_openssl(tmp_path):
    # scipy.stats takes about a second to import, and no command needs it;
    # scipy.sparse takes about 0.15 s and 18 MB, and none needs it either
    # (test_rbmf_eval_loads_no_scipy_sparse).
    # hashlib maps OpenSSL (about 4 MB), which prepare never uses.
    log = tmp_path / "ratings.dat"
    log.write_text("u1::i1::5::1\nu1::i2::4::2\n")
    code = ("import json, sys; early = '_hashlib' in sys.modules; import elicit.cli; "
            "loaded = [name for name in ('scipy.stats', 'scipy.sparse') if name in sys.modules]; "
            f"elicit.cli.main(['prepare', '--dataset', {str(log)!r}, '--min-count', '1', "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(json.dumps([early, loaded, '_hashlib' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    early, loaded, hashlib_after_prepare = json.loads(out.splitlines()[-1])
    assert loaded == []
    if early:
        pytest.skip("this interpreter loads _hashlib before elicit is imported")
    assert not hashlib_after_prepare


def test_rbmf_eval_loads_no_scipy_sparse(tmp_path):
    # RBMF's SVD and ridge fit multiply dense row blocks (data.RowBlocks):
    # an eval of both RBMF methods on the TINY benchmark corpus ends with
    # scipy.sparse never imported
    perfbench = PACKAGE.parent.parent / "perfbench"
    code = ("import json, sys; "
            f"sys.path.insert(0, {str(perfbench)!r}); import corpus; "
            f"open({str(tmp_path / 'ratings.dat')!r}, 'w').write("
            "corpus.generate(corpus.TINY, 7)[0]); "
            "import elicit.cli; "
            f"rc = [elicit.cli.main(['prepare', '--dataset', {str(tmp_path / 'ratings.dat')!r}, "
            f"'--out', {str(tmp_path / 'prepared')!r}]), "
            f"elicit.cli.main(['eval', '--data-dir', {str(tmp_path / 'prepared')!r}, "
            f"'--out', {str(tmp_path / 'eval')!r}, '--methods', 'RBMF,RBMF++', '--runs', '1', "
            "'--k', '5', '--epochs', '1', '--ns', '5,10'])]; "
            "print(json.dumps([rc, 'scipy.sparse' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [[0, 0], False]
    assert (tmp_path / "eval" / "eval_report.json").is_file()


def test_elicit_is_imported_from_the_first_pythonpath_entry():
    # a pytest `pythonpath` setting would be put ahead of PYTHONPATH, so
    # PYTHONPATH=<other tree>/src would silently test this tree's code
    entries = [entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    if not entries:
        pytest.skip("PYTHONPATH is not set")
    assert PACKAGE.parent.resolve() == pathlib.Path(entries[0]).resolve()
