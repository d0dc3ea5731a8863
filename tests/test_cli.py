import json
from pathlib import Path

import pytest

from polypoisson.cli import main

P1_JSON = json.dumps(
    {
        "n": 3,
        "entries": [
            {"i": 1, "j": 2, "poly": "X2"},
            {"i": 1, "j": 3, "poly": "2*X3"},
        ],
    }
)

GOLDEN = Path(__file__).parent / "golden"
# deformed-mu at n = 9 is not Poisson, so verify exits with code 1
REJECTED_GOLDENS = {"verify_deformed_mu_n9.txt", "verify_deformed_mu_n9.json"}

# one even and one odd variable count; both coboundary routes must print these
DELTA_GOLDENS = [
    ("delta_rigid_n5_k2.json", ("rigid", "--param", "n=5"),
     '{"k": 2, "entries": [{"args": [1, 3], "poly": "X2*X3"}, {"args": [2, 5], "poly": "X4"}]}'),
    ("delta_p2_n5_k1.json", ("P2", "--param", "n=5"),
     '{"k": 1, "entries": [{"args": [2], "poly": "X1*X3"}, {"args": [5], "poly": "X4^2"}]}'),
]

BAD_JSON = json.dumps(
    {
        "n": 3,
        "entries": [
            {"i": 1, "j": 2, "poly": "X2"},
            {"i": 1, "j": 3, "poly": "X3"},
            {"i": 2, "j": 3, "poly": "X1"},
        ],
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_catalog_ok(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "P1")
    assert code == 0
    assert "integrable" in out


@pytest.mark.parametrize(
    "data, text, forms",
    [
        ({"n": 1, "entries": []},
         "integrable (n=1); trisum criterion holds (the form criterion needs n >= 3)", None),
        ({"n": 2, "entries": [{"i": 1, "j": 2, "poly": "X1^2"}]},
         "integrable (n=2); trisum criterion holds (the form criterion needs n >= 3)", None),
        (json.loads(P1_JSON), "integrable (n=3); trisum and form criteria agree", True),
    ],
    ids=["n1", "n2", "n3"],
)
def test_verify_names_only_the_criteria_it_ran(capsys, data, text, forms):
    # the form criterion needs three variables, so below that only the trisum runs
    code, out, err = run(capsys, "verify", "--json", json.dumps(data))
    assert (code, out, err) == (0, text + "\n", "")
    code, out, err = run(capsys, "verify", "--format", "json", "--json", json.dumps(data))
    assert code == 0 and err == ""
    assert json.loads(out) == {"criteria": {"exterior_forms": forms, "jacobi_trisum": True},
                               "integrable": True, "n": data["n"]}


def test_verify_witness_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--json", BAD_JSON)
    assert code == 1
    assert "(1,2,3): 2*X1" in out


def test_verify_malformed_json_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--json", "{not json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("base, pair", [(1, (1, 2)), (0, (0, 2))])
def test_verify_rejects_a_repeated_entry(capsys, base, pair):
    # a second entry for one (i, j) is an error, not a silent replacement
    i, j = pair
    entries = [{"i": i, "j": j, "poly": "X2"}, {"i": i, "j": j, "poly": "X1"}]
    data = json.dumps({"n": 3, "base": base, "entries": entries})
    for command in ("verify", "cohomology"):
        code, out, err = run(capsys, command, "--json", data)
        assert code == 2 and out == ""
        assert f"entry ({i},{j}) appears more than once" in err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 3, "entries": [{"i": 1.9, "j": 2, "poly": "X3"}]}, "i must be an integer, got 1.9"),
        ({"n": 3, "entries": [{"i": 1, "j": 2.0, "poly": "X3"}]}, "j must be an integer, got 2.0"),
        ({"n": 3, "entries": [{"i": True, "j": 2, "poly": "X3"}]},
         "i must be an integer, got true"),
        ({"n": -1, "entries": []}, "n must be an integer >= 1, got -1"),
        ({"n": 0, "entries": []}, "n must be an integer >= 1, got 0"),
        ({"n": True, "entries": []}, "n must be an integer >= 1, got true"),
        ({"n": 3.0, "entries": []}, "n must be an integer >= 1, got 3.0"),
        ({"n": "3", "entries": []}, 'n must be an integer >= 1, got "3"'),
        ({"n": 3, "base": False, "entries": []}, "base must be an integer, got false"),
        ({"n": 3, "base": 0.5, "entries": []}, "base must be an integer, got 0.5"),
    ],
    ids=["float-i", "float-j", "bool-i", "negative-n", "zero-n", "bool-n", "float-n",
         "string-n", "bool-base", "float-base"],
)
def test_verify_rejects_numbers_that_are_not_json_integers(capsys, data, message):
    # int() would truncate 1.9 to 1 and read true as 1, so these verified
    # the wrong structure (or one on -1 variables) and exited 0
    code, out, err = run(capsys, "verify", "--json", json.dumps(data))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "cochain, message",
    [
        ({"k": 1.0, "entries": [{"args": [2], "poly": "X1"}]}, "k must be an integer, got 1.0"),
        ({"k": True, "entries": [{"args": [2], "poly": "X1"}]}, "k must be an integer, got true"),
        ({"k": 1, "entries": [{"args": [2.5], "poly": "X1"}]},
         "each of args must be an integer, got 2.5"),
        ({"k": 1, "entries": [{"args": [True], "poly": "X1"}]},
         "each of args must be an integer, got true"),
        ({"k": 1, "entries": [{"args": "2", "poly": "X1"}]},
         'each of args must be an integer, got "2"'),
        ({"k": 1, "base": 1.0, "entries": []}, "base must be an integer, got 1.0"),
    ],
    ids=["float-k", "bool-k", "float-arg", "bool-arg", "string-args", "float-base"],
)
def test_delta_rejects_numbers_that_are_not_json_integers(capsys, cochain, message):
    code, out, err = run(capsys, "delta", "--catalog", "P1", "--cochain", json.dumps(cochain))
    assert code == 2 and out == ""
    assert message in err


def test_a_repeated_param_is_rejected(capsys):
    # the second value used to replace the first without a word
    for command in ("verify", "cohomology"):
        code, out, err = run(capsys, command, "--catalog", "P2",
                             "--param", "n=4", "--param", " n =5")
        assert code == 2 and out == ""
        assert "--param n appears more than once" in err


@pytest.mark.parametrize(
    "sources",
    [
        ("catalog", "file"),
        ("catalog", "json"),
        ("file", "json"),
        ("catalog", "file", "json"),
    ],
    ids=["catalog-file", "catalog-json", "file-json", "all-three"],
)
@pytest.mark.parametrize("command", ["verify", "cohomology"])
def test_structure_sources_are_exclusive(capsys, tmp_path, command, sources):
    # the file exists and holds P1, so each source alone would be read
    path = tmp_path / "structure.json"
    path.write_text(P1_JSON)
    given = {"catalog": "P1", "file": str(path), "json": P1_JSON}
    argv = [command] + [arg for name in sources for arg in (f"--{name}", given[name])]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: use only one of --catalog, --file and --json\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cohomology", "--k", "-1", "--degree", "1"), "--k must be >= 0, got -1"),
        (("cohomology", "--kmax", "-1"), "--kmax must be >= 0, got -1"),
        (("cohomology", "--k", "1", "--degree", "-1"), "--degree must be >= 0, got -1"),
        (("cohomology", "--kmax", "1", "--cutoff", "-1"), "--cutoff must be >= 0, got -1"),
        (("cohomology", "--k", "1", "--kmax", "2"), "--k and --kmax cannot be combined"),
        (("cohomology", "--degree", "1", "--cutoff", "3"),
         "--degree and --cutoff cannot be combined"),
        (("matrix", "--k", "-1", "--degree", "1"), "--k must be >= 0, got -1"),
        (("matrix", "--k", "1", "--degree", "-2"), "--degree must be >= 0, got -2"),
    ],
    ids=["cohomology-k", "cohomology-kmax", "cohomology-degree", "cohomology-cutoff",
         "cohomology-k-and-kmax", "cohomology-degree-and-cutoff", "matrix-k", "matrix-degree"],
)
def test_arity_and_degree_ranges_are_checked(capsys, argv, message):
    command, *rest = argv
    code, out, err = run(capsys, command, "--catalog", "P1", *rest)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_missing_source_exits_2(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_bracket_examples(capsys):
    code, out, _ = run(capsys, "bracket", "--catalog", "P1", "--p", "X1", "--q", "X2*X3")
    assert code == 0 and out.strip() == "3*X2*X3"
    code, out, _ = run(capsys, "bracket", "--json", P1_JSON, "--p", "X1", "--q", "X1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "bracket", "--catalog", "P1", "--p", "X2", "--q", "X3")
    assert code == 0 and out.strip() == "0"


def test_bracket_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "bracket", "--catalog", "P1", "--p", "X9", "--q", "X1")
    assert code == 2


def test_delta_zero_cochain(capsys):
    cochain = json.dumps({"k": 0, "entries": [{"args": [], "poly": "X2"}]})
    code, out, _ = run(capsys, "delta", "--catalog", "P1", "--cochain", cochain)
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 1
    assert data["entries"] == [{"args": [1], "poly": "X2"}]


def test_delta_via_forms_agrees(capsys):
    cochain = json.dumps(
        {"k": 2, "entries": [{"args": [1, 3], "poly": "-X2^2"}]}
    )
    code1, out1, _ = run(capsys, "delta", "--catalog", "P1", "--cochain", cochain)
    code2, out2, _ = run(
        capsys, "delta", "--catalog", "P1", "--cochain", cochain, "--via", "forms"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["entries"] == []


def test_delta_sums_entries_that_repeat_args(capsys):
    def delta_of(*entries):
        cochain = json.dumps(
            {"k": 1, "entries": [{"args": args, "poly": poly} for args, poly in entries]}
        )
        code, out, _ = run(capsys, "delta", "--catalog", "P1", "--cochain", cochain)
        assert code == 0
        return out

    summed = delta_of(([2], "3*X1*X3"), ([3], "X2"))
    assert delta_of(([2], "X1*X3"), ([3], "X2"), ([2], "2*X1*X3")) == summed
    assert json.loads(summed)["entries"]
    zero = delta_of()
    assert delta_of(([2], "X1*X3"), ([2], "-X1*X3")) == zero
    assert json.loads(zero) == {"base": 1, "entries": [], "k": 2}


def test_delta_cochain_base_must_match_the_structure(capsys):
    # P1 labels from 1, so a cochain typed in base 0 must not be read as base 1
    entries = [{"args": [], "poly": "X1"}]
    code, out, err = run(capsys, "delta", "--catalog", "P1", "--cochain",
                         json.dumps({"k": 0, "base": 0, "entries": entries}))
    assert code == 2 and out == ""
    assert "cochain base 0 differs from the structure's base 1" in err
    outputs = [run(capsys, "delta", "--catalog", "P1", "--cochain", json.dumps(cochain))
               for cochain in ({"k": 0, "entries": entries},
                               {"k": 0, "base": 1, "entries": entries})]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize(
    "k, args, message",
    [
        (2, [3, 1], "args [3, 1] are not strictly increasing"),
        (2, [2, 2], "args [2, 2] are not strictly increasing"),
        (2, [0, 1], "args [0, 1] out of range 1..3"),
        (2, [1, 4], "args [1, 4] out of range 1..3"),
        (2, [3], "args [3] have length 1, expected k=2"),
    ],
)
def test_delta_cochain_errors_name_labels(capsys, k, args, message):
    cochain = json.dumps({"k": k, "entries": [{"args": args, "poly": "X1"}]})
    code, _, err = run(capsys, "delta", "--catalog", "P1", "--cochain", cochain)
    assert code == 2
    assert message in err


def test_cohomology_table_p2(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--catalog", "P2", "--param", "n=2",
        "--k", "2", "--degree", "2", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"k": 2, "d": 2, "dim_chi": 3, "dim_Z": 3, "dim_B": 3, "dim_H": 0}]


def test_cohomology_invariant_rigid(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--catalog", "rigid", "--param", "n=5",
        "--k", "2", "--degree", "2", "--invariant", "--exclude-x0",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["dim_H"] == 2


def test_cohomology_zero_structure(capsys):
    empty = json.dumps({"n": 2, "entries": []})
    code, out, _ = run(
        capsys, "cohomology", "--json", empty, "--k", "1", "--degree", "1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["dim_H"] == 4


def test_cohomology_mixed_degrees_exits_1(capsys):
    for command in ("cohomology", "matrix"):
        code, out, err = run(
            capsys, command, "--catalog", "Omega7",
            "--param", "a=1", "--param", "b=1", "--k", "2", "--degree", "2",
        )
        assert code == 1 and out == ""
        assert err == "error: structure entries mix degrees [1, 2]; split by degree\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("catalog", "--name", "P2"), "P2 requires parameters: n"),
        (("catalog", "--name", "P2", "--param", "n=1"),
         "parameter n=1 violates the constraint integer n >= 2"),
        (("delta", "--catalog", "P2", "--param", "n=2", "--via", "forms", "--cochain",
          '{"k": 1, "entries": [{"args": [1], "poly": "X1"}]}'),
         "the form route needs at least three variables"),
        (("cohomology", "--catalog", "P2", "--param", "n=3", "--exclude-x0"),
         "the filters do not cut a subcomplex"),
        (("matrix", "--catalog", "P1", "--invariant", "--weights", "1,2,3", "--k", "1",
          "--degree", "1"), "the filters do not cut a subcomplex"),
        (("cohomology", "--catalog", "P1", "--weights", "0,1,2"), "--weights needs --invariant"),
        (("matrix", "--catalog", "P1", "--weights", "0,1,2", "--k", "1", "--degree", "1"),
         "--weights needs --invariant"),
        # an empty --weights used to be dropped, or to fall back to the diagonal weights
        (("cohomology", "--catalog", "P1", "--weights", "", "--kmax", "1", "--cutoff", "1"),
         "--weights needs --invariant"),
        (("matrix", "--catalog", "P1", "--weights", "", "--k", "1", "--degree", "1"),
         "--weights needs --invariant"),
        (("cohomology", "--catalog", "P1", "--invariant", "--weights", "", "--kmax", "1",
          "--cutoff", "1"), "bad --weights: invalid literal for int() with base 10: ''"),
        (("matrix", "--catalog", "P1", "--invariant", "--weights", "", "--k", "1", "--degree",
          "1"), "bad --weights: invalid literal for int() with base 10: ''"),
        (("cohomology", "--catalog", "L1", "--invariant"),
         "--invariant needs --weights: the structure has no diagonal coordinate"),
        (("bracket", "--catalog", "P1", "--p", "X1*", "--q", "X2"), "expected a factor"),
        (("verify", "--json", json.dumps({"n": 3, "entries": [{"i": 1, "j": 2, "poly": "X3*"}]})),
         "expected a factor"),
        (("delta", "--catalog", "P1", "--cochain",
          '{"k": 1, "entries": [{"args": [1], "poly": "X2^2*"}]}'), "expected a factor"),
        (("verify", "--json", json.dumps({"n": 3, "entries": [{"i": 2, "j": 1, "poly": "X3"}]})),
         "entries must have i < j"),
        # each --param below used to be parsed and then dropped without a word
        (("verify", "--json", P1_JSON, "--param", "n=5"), "--param needs --catalog"),
        (("cohomology", "--json", P1_JSON, "--param", "n=5"), "--param needs --catalog"),
        (("catalog", "--param", "n=5"), "--param needs --name"),
        # Fraction and int read every Unicode digit, so ٥ (Arabic-Indic five)
        # used to be read as 5; the polynomial parser reads ASCII digits only
        (("verify", "--catalog", "P2", "--param", "n=\u0665"),
         "bad parameter value '\u0665': not ASCII"),
        (("cohomology", "--catalog", "P1", "--invariant", "--weights", "\u0660,\u0661,\u0662",
          "--k", "1", "--degree", "1"), "bad --weights: '\u0660,\u0661,\u0662' is not ASCII"),
        # and both read PEP 515 underscores, so n=1_0 used to be read as 10
        (("verify", "--catalog", "P2", "--param", "n=1_0"),
         "bad parameter value '1_0': has an underscore"),
        (("matrix", "--catalog", "P2", "--param", "n=4", "--k", "1", "--degree", "1",
          "--invariant", "--weights", "0,1_0,0,0"), "bad --weights: '0,1_0,0,0' has an underscore"),
    ],
    ids=["catalog-missing-param", "catalog-bad-param", "forms-n2", "exclude-x0-p2",
         "weights-off-subcomplex", "weights-without-invariant",
         "matrix-weights-without-invariant", "weights-empty-without-invariant",
         "matrix-weights-empty-without-invariant", "weights-empty", "matrix-weights-empty",
         "invariant-without-diagonal",
         "bracket-trailing-star", "json-trailing-star", "cochain-trailing-star",
         "json-pair-order", "verify-json-param", "cohomology-json-param",
         "catalog-param-without-name", "param-non-ascii-digit", "weights-non-ascii-digits",
         "param-underscore", "weights-underscore"],
)
def test_usage_errors_exit_2_with_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


INTEGER_OPTIONS = [
    ("cohomology", "--k", ("--degree", "1")),
    ("cohomology", "--kmax", ("--degree", "1")),
    ("cohomology", "--degree", ("--k", "1")),
    ("cohomology", "--cutoff", ("--k", "1")),
    ("matrix", "--k", ("--degree", "1")),
    ("matrix", "--degree", ("--k", "1")),
]


@pytest.mark.parametrize("command, option, rest", INTEGER_OPTIONS,
                         ids=[f"{c}{o}" for c, o, _ in INTEGER_OPTIONS])
@pytest.mark.parametrize("value", ["\u0661", "1_0", "x"], ids=["non-ascii", "underscore", "word"])
def test_integer_options_read_ascii_digits_only(capsys, command, option, rest, value):
    # int reads every Unicode digit and PEP 515 underscores, so --k \u0661 used
    # to print the k=1 row; argparse now refuses them as it refuses a word
    code, out, err = run(capsys, command, "--catalog", "P1", option, value, *rest)
    assert (code, out) == (2, "")
    assert f"error: argument {option}: invalid int value: {value!r}" in err
    assert run(capsys, command, "--catalog", "P1", option, "1", *rest)[0] == 0


def test_off_subcomplex_error_names_the_first_outside_term(capsys):
    code, out, err = run(capsys, "matrix", "--catalog", "P2", "--param", "n=4", "--k", "1",
                         "--degree", "1", "--invariant", "--weights", "1,0,0,0")
    assert (code, out) == (2, "")
    assert err == (
        "error: coboundary left the filtered slice; the filters do not cut a subcomplex "
        "for this structure (cochain term (0, 1):(0, 1, 0, 0) lies outside the slice)\n"
    )


@pytest.mark.parametrize(
    "source, weights",
    [
        (("--catalog", "L2"), "0,1,-1"),
        (("--json", json.dumps({"n": 4, "entries": [
            {"i": 1, "j": i, "poly": f"{i - 1}*X{i}"} for i in (2, 3, 4)]})), "0,1,2,3"),
    ],
    ids=["L2", "json-P2-n4"],
)
def test_invariant_weights_default_to_the_diagonal_coordinate(capsys, source, weights):
    table = ("cohomology", *source, "--invariant", "--kmax", "2", "--cutoff", "3")
    matrix = ("matrix", *source, "--invariant", "--k", "1", "--degree", "2")
    for argv in (table, matrix):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--weights", weights) == (0, out, "")


def test_cohomology_output_is_deterministic(capsys):
    args = (
        "cohomology", "--catalog", "P1", "--kmax", "2", "--cutoff", "3",
        "--format", "csv",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_matrix_csv_export(capsys):
    code, out, _ = run(
        capsys, "matrix", "--catalog", "P2", "--param", "n=2", "--k", "1",
        "--degree", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) > 1


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("matrix_p2_n4_k1_d1.csv",
         ("matrix", "--catalog", "P2", "--param", "n=4", "--k", "1", "--degree", "1")),
        ("matrix_rigid_n5_invariant_k2_d3.csv",
         ("matrix", "--catalog", "rigid", "--param", "n=5", "--k", "2", "--degree", "3",
          "--invariant", "--exclude-x0")),
        ("cohomology_p2_n5.json",
         ("cohomology", "--catalog", "P2", "--param", "n=5", "--format", "json")),
        ("verify_deformed_mu_n9.txt",
         ("verify", "--catalog", "deformed-mu", "--param", "n=9")),
        ("verify_deformed_mu_n9.json",
         ("verify", "--catalog", "deformed-mu", "--param", "n=9", "--format", "json")),
        ("verify_rigid_n24.json",
         ("verify", "--catalog", "rigid", "--param", "n=24", "--format", "json")),
        *(
            (golden, ("delta", "--catalog", *structure, "--cochain", cochain, "--via", via))
            for golden, structure, cochain in DELTA_GOLDENS
            for via in ("formula", "forms")
        ),
        ("cohomology_rigid_n6_k3_d2.json",
         ("cohomology", "--catalog", "rigid", "--param", "n=6", "--kmax", "3", "--cutoff", "2",
          "--format", "json")),
        ("cohomology_p1_k3_d6.txt",
         ("cohomology", "--catalog", "P1", "--kmax", "3", "--cutoff", "6")),
        ("cohomology_rigid_n10_invariant_k3_d4.json",
         ("cohomology", "--catalog", "rigid", "--param", "n=10", "--invariant", "--exclude-x0",
          "--kmax", "3", "--cutoff", "4", "--format", "json")),
        # values 1/3 and 2/3: the only golden whose matrix has denom > 1
        ("matrix_l3_alpha2_3_k1_d2.csv",
         ("matrix", "--catalog", "L3", "--param", "alpha=2/3", "--k", "1", "--degree", "2")),
        # without --degree or --cutoff the degree range is 0..6
        ("cohomology_p1_k3_d6.txt", ("cohomology", "--catalog", "P1", "--kmax", "3")),
    ],
)
def test_output_matches_golden_bytes(capsys, golden, argv):
    # matrix and cohomology goldens were recorded when delta_matrix applied
    # delta to each basis element, verify goldens when both integrability
    # routes visited every triple, delta goldens when form_delta_sign probed
    # for its signs, and the plain rigid and P1 cohomology goldens when
    # cohomology_dims eliminated whole slices; today's code must print the
    # same bytes
    code, out, _ = run(capsys, *argv)
    assert code == (1 if golden in REJECTED_GOLDENS else 0)
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_catalog_list_and_export(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "P1" in out and "Omega11" in out
    code, out, _ = run(capsys, "catalog", "--name", "P1")
    data = json.loads(out)
    assert data["entries"] == [
        {"i": 1, "j": 2, "poly": "X2"},
        {"i": 1, "j": 3, "poly": "2*X3"},
    ]
    code, out, _ = run(
        capsys, "catalog", "--name", "rigid", "--param", "n=3"
    )
    data = json.loads(out)
    assert data["base"] == 0
    assert {"i": 0, "j": 1, "poly": "X1"} in data["entries"]


def test_catalog_roundtrip_through_verify(capsys):
    code, out, _ = run(capsys, "catalog", "--name", "Omega7", "--param", "a=1", "--param", "b=1/2")
    exported = out.strip()
    code, out, _ = run(capsys, "verify", "--json", exported)
    assert code == 0


def test_reproduce_unknown_id(capsys):
    code, _, err = run(capsys, "reproduce", "--id", "nope")
    assert code == 2


def test_reproduce_catalog_integrability(capsys):
    code, out, _ = run(capsys, "reproduce", "--id", "catalog-integrability")
    assert code == 0
    assert "PASS" in out


def test_reproduce_p1_fails_on_a_wrong_published_total(monkeypatch):
    from polypoisson import reproduce

    wrong = {**reproduce.P1_EXPECTED_TOTALS, 1: 99}
    monkeypatch.setattr(reproduce, "P1_EXPECTED_TOTALS", wrong)
    report = reproduce.run_check("p1-example")
    assert not report["pass"]
    failed = [r for r in report["rows"] if not r["pass"]]
    assert [(r["label"], r["expected"]) for r in failed] == [("total dim H^1, d <= 6", 99)]
    assert report["notes"][0].startswith("no convention reproduces the published totals")


def test_reproduce_catalog_integrability_lets_internal_errors_through(monkeypatch):
    from polypoisson import reproduce

    def disagreeing(name, params=None):
        raise AssertionError("internal disagreement between trisum and form criteria")

    # only a non-integrable structure reads as "does not verify"
    monkeypatch.setattr(reproduce, "catalog_get", disagreeing)
    with pytest.raises(AssertionError, match="internal disagreement"):
        reproduce.check_catalog_integrability(samples=1)


def test_reproduce_rigid_k2_explains_its_mismatch(capsys):
    from polypoisson.reproduce import check_rigid_k2

    # n = 6 is the row that disagrees with the published table; the note
    # points at the ledger, which must exist
    code, out, _ = run(capsys, "reproduce", "--id", "rigid-k2")
    assert code == 1
    assert "[MISMATCH] invariant degree-2 dim H^2 at n=6" in out
    assert "note: " in out and "notes/decisions.md" in out
    assert (Path(__file__).resolve().parents[1] / "notes" / "decisions.md").is_file()
    assert check_rigid_k2(range(7, 9))["notes"] == []


def test_reproduce_rigid_k2_reads_the_catalog_record():
    from polypoisson.reproduce import check_rigid_k2

    # rows past n = 10 take the record's "n>=7" value, and an empty range is no rows
    report = check_rigid_k2(range(11, 13))
    assert [(r["expected"], r["computed"]) for r in report["rows"]] == [(0, 0), (0, 0)]
    assert report["pass"]
    assert check_rigid_k2(range(0))["rows"] == []


def test_integrability_error_labels_follow_json_base(capsys):
    # BAD_JSON written with base 0: the witness must print X0, not X1
    bad0 = json.dumps(
        {
            "n": 3,
            "base": 0,
            "entries": [
                {"i": 0, "j": 1, "poly": "X1"},
                {"i": 0, "j": 2, "poly": "X2"},
                {"i": 1, "j": 2, "poly": "X0"},
            ],
        }
    )
    code, _, err = run(capsys, "bracket", "--json", bad0, "--p", "X0", "--q", "X1")
    assert code == 1
    assert err.strip() == "error: not integrable: trisum(0,1,2) = 2*X0"


def test_reproduce_rigid_k1_note_labels_follow_first_index(monkeypatch):
    from polypoisson import reproduce
    from polypoisson.multivector import MultiDerivation

    published = reproduce.rigid_expected_cochain

    def not_a_cocycle(n):
        # rescale the second published slot, which breaks the cocycle condition
        phi = published(n)
        values = dict(phi.values)
        idx = sorted(values)[1]
        values[idx] = values[idx] * 2
        return MultiDerivation(phi.n, phi.k, values)

    monkeypatch.setattr(reproduce, "rigid_expected_cochain", not_a_cocycle)
    report = reproduce.check_rigid_k1(range(7, 8))
    assert [r["computed"] for r in report["rows"]] == [1, False, True, False]
    # the ring is X0..X7; slots are labelled from 0 like the variables
    assert report["notes"] == [
        "n=7: printed coefficients are not a cocycle; kernel representatives: "
        "phi(1,4)=-X5, phi(3,4)=X7"
    ]


def test_file_input(tmp_path, capsys):
    path = tmp_path / "structure.json"
    path.write_text(P1_JSON)
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0
    code, _, err = run(capsys, "verify", "--file", str(tmp_path / "missing.json"))
    assert code == 2
