"""CLI tests (the paper's artifact-usage contract)."""

import json
import os

import pytest

from repro.cli import main
from repro.sparse import write_matrix_market
from repro.store import JournalStore
from repro.workloads import Workload
from store_damage import damage_record

LEGACY_STORE = os.path.join(os.path.dirname(__file__), "data", "legacy-store")


@pytest.fixture
def mtx_file(tmp_path, small_regular):
    path = tmp_path / "m.mtx"
    write_matrix_market(small_regular, path)
    return str(path)


class TestStats:
    def test_named_matrix(self, capsys):
        assert main(["stats", "@scfxm1-2r"]) == 0
        out = capsys.readouterr().out
        assert "row variance" in out
        assert "irregular" in out

    def test_file(self, mtx_file, capsys):
        assert main(["stats", mtx_file]) == 0
        assert "nnz" in capsys.readouterr().out


class TestOperatorsAndMatrices:
    def test_operators_listing(self, capsys):
        assert main(["operators"]) == 0
        out = capsys.readouterr().out
        for name in ("COMPRESS", "BMT_ROW_BLOCK", "WARP_SEG_RED", "HYB_DECOMP"):
            assert name in out

    def test_matrices_listing(self, capsys):
        assert main(["matrices"]) == 0
        out = capsys.readouterr().out
        assert "scfxm1-2r" in out
        assert "GL7d19" in out


class TestBaselines:
    def test_runs_all(self, mtx_file, capsys):
        assert main(["baselines", mtx_file, "--gpu", "RTX2080"]) == 0
        out = capsys.readouterr().out
        for fmt in ("CSR5", "Merge", "HYB", "TACO"):
            assert fmt in out


class TestSearch:
    def test_search_and_export(self, mtx_file, tmp_path, capsys):
        out_dir = tmp_path / "artifact"
        code = main([
            "search", mtx_file, "--evals", "24", "--seed", "1",
            "--out", str(out_dir), "--compare-pfs",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "winning Operator Graph" in text
        assert "GFLOPS" in text
        assert "speedup" in text
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["kernels"]

    def test_search_prints_kernel_without_out(self, mtx_file, capsys):
        assert main(["search", mtx_file, "--evals", "16"]) == 0
        assert "__global__" in capsys.readouterr().out

    def test_extensions_flag(self, capsys):
        code = main([
            "search", "@GL7d19", "--evals", "16", "--extensions",
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "spec,reason",
        [
            ("banded-768", "No such file or directory"),
            ("@nonexistent", "unknown matrix 'nonexistent'"),
        ],
        ids=["missing-file", "unknown-name"],
    )
    def test_bad_matrix_spec_exits_cleanly(self, spec, reason, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["search", spec, "--evals", "4"])
        assert exit_info.value.code == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot load matrix {spec!r}: ")
        assert reason in lines[0]

    def test_malformed_matrix_file_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["stats", str(path)])
        assert exit_info.value.code == 2
        out = capsys.readouterr().out
        assert out.startswith("error: cannot load matrix ")
        assert "MatrixMarket header" in out

    def test_profile_lists_live_stages(self, capsys):
        assert main(["search", "@scfxm1-2r", "--evals", "8", "--profile"]) == 0
        out = capsys.readouterr().out
        stages = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert "batch_cost" in stages and "analysis" not in stages

    def test_unknown_gpu_fails(self, mtx_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["search", mtx_file, "--gpu", "H100", "--evals", "4"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (
            "repro search: error: argument --gpu: unknown GPU 'H100'; "
            "presets: A100, RTX2080"
        )

    def test_multi_matrix_summary(self, mtx_file, capsys):
        code = main([
            "search", mtx_file, "@scfxm1-2r", "--evals", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Search summary" in out
        assert "cache hit" in out
        assert "scfxm1-2r" in out

    def test_no_valid_candidate_reports_cleanly(self, mtx_file, capsys,
                                                monkeypatch):
        # every candidate fails numeric verification
        monkeypatch.setattr(Workload, "allclose", lambda self, y, ref: False)
        assert main(["search", mtx_file, "--evals", "4"]) == 1
        assert "no valid candidate" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["search", "@scfxm1-2r", "--evals", "-3"],
         "argument --evals: evaluation count must be >= 1, got -3"),
        (["search", "@scfxm1-2r", "--evals", "0"],
         "argument --evals: evaluation count must be >= 1, got 0"),
        (["search", "@scfxm1-2r", "--evals", "many"],
         "argument --evals: expected an integer evaluation count, "
         "got 'many'"),
        (["bench", "@corpus:1", "--evals", "-3"],
         "argument --evals: evaluation count must be >= 1, got -3"),
        (["serve", "@scfxm1-2r", "--store", "s", "--evals", "-3"],
         "argument --evals: evaluation count must be >= 1, got -3"),
        (["check", "--samples", "-2"],
         "argument --samples: sample count must be >= 0, got -2"),
    ])
    def test_bad_counts_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"repro {argv[0]}: error: {message}"
        )

    @pytest.mark.parametrize("name", ["qmc", "dts", "bogus"])
    def test_unknown_sampler_lists_the_samplers(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "@scfxm1-2r", "--sampler", name])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"repro search: error: argument --sampler: unknown sampler "
            f"{name!r}; samplers: annealer, tpe"
        )

class TestBench:
    """Corpus-pipeline smoke tests on two tiny generated matrices (the
    full corpus benchmark lives behind the `slow` marker)."""

    @pytest.fixture
    def two_matrices(self, tmp_path, small_regular, small_lp):
        paths = []
        for matrix, fname in ((small_regular, "a.mtx"), (small_lp, "b.mtx")):
            path = tmp_path / fname
            write_matrix_market(matrix, path)
            paths.append(str(path))
        return paths

    def test_bench_smoke(self, two_matrices, tmp_path, capsys):
        store = tmp_path / "store"
        code = main([
            "bench", *two_matrices, "--evals", "12",
            "--store", str(store),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Geomean speedup" in out
        assert "Fig 10" in out
        assert "Creativity" in out
        assert "2 measured, 0 resumed" in out
        assert "inf" not in out and "nan" not in out
        kinds = [e.kind for e in JournalStore(store).entries()]
        assert kinds.count("bench") == 2

    def test_bench_resumes_from_store(self, two_matrices, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["bench", *two_matrices, "--evals", "12", "--store", str(store)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 measured, 2 resumed" in out

        def tables(text):
            return text[text.index("Corpus evaluation on"):]

        assert tables(out) == tables(first)

    def test_bench_corpus_slice(self, capsys):
        assert main(["bench", "@corpus:2", "--evals", "8"]) == 0
        out = capsys.readouterr().out
        assert "2 matrices" in out

    def test_bench_bad_corpus_slice(self, capsys):
        for spec, reason in (
            ("@corpus:zzz", "bad corpus slice '@corpus:zzz'"),
            ("@corpus:3-1", "empty corpus slice '@corpus:3-1'"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(["bench", spec, "--evals", "8"])
            assert exit_info.value.code == 2
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: {reason}")


class TestDesignStoreFlag:
    def test_search_store_warm_starts_second_run(self, mtx_file, tmp_path,
                                                 capsys):
        store = str(tmp_path / "designs")
        args = ["search", mtx_file, "--evals", "16", "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 designs loaded" in first
        assert main(args) == 0  # fresh engine, same store path
        second = capsys.readouterr().out
        assert "0 designer runs" in second
        assert "/ 0 designed" in second

    def test_bench_store_populates(self, mtx_file, tmp_path, capsys):
        store = str(tmp_path / "designs")
        code = main(["bench", mtx_file, "--evals", "12", "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "design store:" in out
        assert "results written" in out


class TestServe:
    def test_serve_search_then_hit(self, mtx_file, tmp_path, capsys):
        store = str(tmp_path / "designs")
        args = ["serve", mtx_file, "--store", store, "--evals", "24"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "search" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "store" in second
        assert "1 exact" in second

    def test_serve_exports_artifact(self, mtx_file, tmp_path, capsys):
        store = str(tmp_path / "designs")
        out_dir = tmp_path / "served"
        code = main([
            "serve", mtx_file, "--store", store, "--evals", "24",
            "--out", str(out_dir),
        ])
        assert code == 0
        assert "artifact exported" in capsys.readouterr().out
        manifests = list(out_dir.glob("*/manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["kernels"]


class TestStoreCommand:
    @pytest.fixture
    def populated(self, mtx_file, tmp_path, capsys):
        store = str(tmp_path / "designs")
        main(["search", mtx_file, "--evals", "16", "--store", store])
        capsys.readouterr()
        return store

    def test_ls(self, populated, capsys):
        assert main(["store", "ls", populated]) == 0
        out = capsys.readouterr().out
        assert "design" in out and "result" in out and "ok" in out

    def test_verify_clean_and_corrupt(self, populated, tmp_path, capsys):
        assert main(["store", "verify", populated]) == 0
        capsys.readouterr()
        damage_record(populated, "design")
        assert main(["store", "verify", populated]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_gc(self, populated, capsys):
        assert main(["store", "gc", populated]) == 0
        assert "entries removed" in capsys.readouterr().out

    def test_missing_store_reports_cleanly(self, tmp_path, capsys):
        assert main(["store", "ls", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_migrate_legacy_store(self, tmp_path, capsys):
        new = str(tmp_path / "new")
        assert main(["store", "ls", LEGACY_STORE]) == 2
        assert "store migrate" in capsys.readouterr().out
        assert main(["store", "migrate", LEGACY_STORE, new]) == 0
        assert "migrated 5 entries" in capsys.readouterr().out
        assert main(["store", "verify", new]) == 0
        assert "5 ok, 0 corrupt" in capsys.readouterr().out
        assert main(["store", "migrate", LEGACY_STORE]) == 2
        assert main(["store", "ls", new, str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().out


class TestOneStore:
    def test_serve_store_works_for_every_command(self, mtx_file, tmp_path,
                                                 capsys):
        """One store, written by serve, opens in every store-taking
        command."""
        store = str(tmp_path / "store")
        for argv in (
            ["serve", mtx_file, "--store", store, "--evals", "16"],
            ["search", mtx_file, "--evals", "16", "--store", store],
            ["bench", mtx_file, "--evals", "12", "--store", store],
            ["check", "--store", store],
            ["store", "verify", store],
            ["store", "compact", store],
        ):
            assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert "0 designer runs" in out  # search warm-started from serve
        assert "check passed" in out and "compacted to epoch 1" in out

    @pytest.mark.parametrize("command", ["search", "bench", "serve"])
    def test_unusable_store_path_exits_cleanly(self, command, mtx_file,
                                               tmp_path, capsys):
        a_file = tmp_path / "file"
        a_file.write_text("{}")
        bad_header = tmp_path / "bad-header"
        bad_header.mkdir()
        (bad_header / "store.json").write_text("not json")
        bad_schema = tmp_path / "bad-schema"
        bad_schema.mkdir()
        (bad_schema / "store.json").write_text(
            '{"kind": "design-store", "schema": 99, "backend": "journal"}'
        )
        cases = [
            (a_file, "is a file"),
            (bad_header, "cannot read design-store header"),
            (bad_schema, "schema 99"),
            (LEGACY_STORE, "store migrate"),
            (a_file / "sub", "cannot create store"),
        ]
        for path, reason in cases:
            with pytest.raises(SystemExit) as exit_info:
                main([command, mtx_file, "--evals", "8",
                      "--store", str(path)])
            assert exit_info.value.code == 2
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert reason in lines[0]


    @pytest.mark.parametrize("command", ["search", "bench"])
    def test_warm_start_without_store_exits_cleanly(self, command, mtx_file,
                                                     capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, mtx_file, "--evals", "8", "--warm-start"])
        assert exit_info.value.code == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["error: --warm-start requires --store DIR"]


class TestSearchMultiExport:
    def test_multi_matrix_export(self, mtx_file, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main([
            "search", mtx_file, "@scfxm1-2r", "--evals", "12",
            "--out", str(out_dir),
        ])
        assert code == 0
        exported = list(out_dir.glob("*/manifest.json"))
        assert len(exported) == 2
