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


def test_verify_witness_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--json", BAD_JSON)
    assert code == 1
    assert "(1,2,3): 2*X1" in out


def test_verify_malformed_json_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--json", "{not json")
    assert code == 2
    assert "error" in err


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
    code, _, err = run(
        capsys, "cohomology", "--catalog", "Omega7",
        "--param", "a=1", "--param", "b=1", "--k", "2", "--degree", "2",
    )
    assert code == 1
    assert "split by degree" in err


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
