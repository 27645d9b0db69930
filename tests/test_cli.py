import os
import subprocess
import sys

import pytest

import swinvos

from swinvos.cli import main
from swinvos.config import ModelConfig
from swinvos.model import init_model


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_writes_sequence(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--out", str(tmp_path / "seq"),
                           "--frames", "3", "--size", "64", "--objects", "2")
        assert code == 0
        assert "seed=0" in out
        assert sorted(os.listdir(tmp_path / "seq" / "frames")) == [
            "00000.ppm", "00001.ppm", "00002.ppm"]
        assert len(os.listdir(tmp_path / "seq" / "masks")) == 3

    def test_reproducible_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            run(capsys, "gen", "--out", str(tmp_path / name), "--frames", "2",
                "--seed", "5")
        a = (tmp_path / "a" / "frames" / "00001.ppm").read_bytes()
        b = (tmp_path / "b" / "frames" / "00001.ppm").read_bytes()
        assert a == b

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--out", str(tmp_path / "s"), "--bogus")
        assert code == 1


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # --threads must reach the BLAS environment before numpy loads, and a
    # negative count is refused before then
    src = os.path.dirname(os.path.dirname(swinvos.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, swinvos.cli; print('numpy' in sys.modules); "
         "code = swinvos.cli.main(['--threads', '-4', 'gen', '--out', sys.argv[1]]); "
         "print(code, 'numpy' in sys.modules)", str(tmp_path / "s")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "1", "False"]
    assert out.stderr.startswith("error: ")
    assert not (tmp_path / "s").exists()


def test_cli_threads_flag_overrides_inherited_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(swinvos.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="3")
    env.pop("MKL_NUM_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, sys, swinvos.cli; "
         "code = swinvos.cli.main(['--threads', '1', 'gen', '--out', sys.argv[1], "
         "'--frames', '1', '--size', '64', '--objects', '1']); "
         "print(code, *(os.environ[v] for v in "
         "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))",
         str(tmp_path / "s")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-4:] == ["0", "1", "1", "1"]


@pytest.mark.parametrize("threads, want", [("2", "2"), ("0", "4")])
def test_cli_threads_flag_sets_blas_environment(tmp_path, capsys, monkeypatch, threads, want):
    # a positive count replaces the inherited values; 0 leaves them
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in variables:
        monkeypatch.setenv(var, "4")
    code, _, _ = run(capsys, "--threads", threads, "gen", "--out", str(tmp_path / "s"),
                     "--frames", "1")
    assert code == 0 and [os.environ[v] for v in variables] == [want] * 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_train")
    seq = root / "seq"
    ckpt = root / "model.hst"
    assert main(["gen", "--out", str(seq), "--frames", "4", "--size", "64",
                 "--objects", "1", "--seed", "3"]) == 0
    assert main(["train-toy", "--seq", str(seq), "--steps", "8", "--lr", "1e-3",
                 "--ckpt", str(ckpt), "--k", "16"]) == 0
    return root, seq, ckpt


class TestTrainToy:
    def test_outputs_exist(self, trained):
        root, _, ckpt = trained
        assert ckpt.exists()
        loss = ckpt.with_name(ckpt.name + ".loss.csv")
        lines = loss.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 9

    def test_dump_config(self, capsys):
        code, out, _ = run(capsys, "train-toy", "--dump-config", "--k", "7")
        assert code == 0
        assert "variant=nano" in out and "k=7" in out

    def test_missing_ckpt_is_usage_error(self, capsys):
        code, out, err = run(capsys, "train-toy", "--steps", "1")
        assert code == 1 and err.startswith("error: ") and "--ckpt" in err
        assert "command=" not in out

    def test_reproducible_checkpoint(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        run(capsys, "gen", "--out", str(seq), "--frames", "4", "--size", "64")
        paths = []
        for name in ("m1.hst", "m2.hst"):
            ckpt = tmp_path / name
            code, _, _ = run(capsys, "train-toy", "--seq", str(seq), "--steps",
                             "3", "--ckpt", str(ckpt), "--k", "8")
            assert code == 0
            paths.append(ckpt)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_last_stage_only_trains(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        run(capsys, "gen", "--out", str(seq), "--frames", "4", "--size", "64")
        code, _, err = run(capsys, "train-toy", "--seq", str(seq), "--steps", "2",
                           "--ckpt", str(tmp_path / "m.hst"), "--k", "8",
                           "--read-mode", "last_stage_only")
        assert code == 0, err

    def test_stalled_training_exits_3(self, tmp_path, capsys, monkeypatch):
        import swinvos.model as model_module

        init = model_module.init_model

        def saturated(config, seed):
            model = init(config, seed)
            model.decoder.head.bias.data[:] = (-60, 60)
            return model

        monkeypatch.setattr(model_module, "init_model", saturated)
        seq = tmp_path / "seq"
        run(capsys, "gen", "--out", str(seq), "--frames", "4", "--size", "64")
        code, _, err = run(capsys, "train-toy", "--seq", str(seq), "--steps", "2",
                           "--ckpt", str(tmp_path / "m.hst"), "--k", "8")
        assert code == 3
        assert "training stalled" in err

    def test_mixed_frame_sizes_name_the_sizes(self, tmp_path, capsys):
        from swinvos.data import synth_moving_shapes, write_pgm, write_ppm

        seq = tmp_path / "seq"
        run(capsys, "gen", "--out", str(seq), "--frames", "4", "--size", "64")
        large = synth_moving_shapes(0, 2, 96, 1)
        write_ppm(large.frames[1], seq / "frames" / "00001.ppm")
        write_pgm(large.masks[1], seq / "masks" / "00001.pgm")
        code, _, err = run(capsys, "train-toy", "--seq", str(seq), "--steps", "2",
                           "--ckpt", str(tmp_path / "m.hst"))
        assert code == 2
        assert "frame extents (64, 64) differ from memory (96, 96)" in err


    def test_partly_labelled_sequence_trains(self, tmp_path, capsys):
        # masks 0-2 label nothing, so most triplets of a 4-frame clip carry
        # no object and are redrawn
        from swinvos.data import read_pgm, write_pgm

        seq = tmp_path / "seq"
        run(capsys, "gen", "--out", str(seq), "--frames", "4", "--size", "64")
        for i in range(3):
            path = seq / "masks" / f"{i:05d}.pgm"
            write_pgm(read_pgm(path) * 0, path)
        ckpt = tmp_path / "m.hst"
        code, _, err = run(capsys, "train-toy", "--seq", str(seq), "--steps", "30",
                           "--ckpt", str(ckpt), "--k", "8")
        assert code == 0, err
        assert ckpt.exists()
        lines = ckpt.with_name(ckpt.name + ".loss.csv").read_text().splitlines()
        assert len(lines) == 31


class TestInferAndEval:
    def test_infer_writes_masks_and_timing(self, trained, capsys):
        root, seq, ckpt = trained
        out_dir = root / "pred"
        code, out, _ = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
                           "--out", str(out_dir), "--k", "16")
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["00001.pgm", "00002.pgm", "00003.pgm", "timing.csv"]
        timing = (out_dir / "timing.csv").read_text().splitlines()
        assert timing[0] == "frame,wall_s"
        assert len(timing) == 5

    def test_infer_firstprev_policy(self, trained, capsys):
        root, seq, ckpt = trained
        code, _, _ = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
                         "--out", str(root / "pred_fp"), "--k", "16",
                         "--memory", "firstprev")
        assert code == 0

    def test_infer_builds_the_model_its_checkpoint_describes(self, trained, tmp_path,
                                                              capsys):
        _, seq, _ = trained
        ckpt = tmp_path / "img.hst"
        code, _, err = run(capsys, "train-toy", "--seq", str(seq), "--steps", "1",
                           "--ckpt", str(ckpt), "--k", "8", "--encoder-mode", "image_only",
                           "--no-other-mask")
        assert code == 0, err
        flags = ("--k", "5", "--memory", "firstprev", "--read-mode", "dense_all")
        code, out, _ = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
                           "--out", str(tmp_path / "pred"), *flags)
        assert code == 0
        assert (tmp_path / "pred" / "00003.pgm").exists()
        assert "seed=" not in out
        code, dumped, _ = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
                              "--out", str(tmp_path / "unused"), "--dump-config", *flags)
        assert code == 0 and not (tmp_path / "unused").exists()
        expected = ModelConfig(encoder_mode="image_only", other_mask_enabled=False, k=5,
                               memory_policy="firstprev", read_mode="dense_all")
        assert dumped == expected.canonical()
        assert dumped in out

    def test_infer_dump_config_needs_no_output_paths(self, trained, capsys):
        root, _, ckpt = trained
        code, out, _ = run(capsys, "infer", "--ckpt", str(ckpt), "--dump-config", "--k", "9")
        assert code == 0 and "k=9" in out.splitlines()
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--out", str(root / "n"))
        assert code == 1 and "--seq" in err and not (root / "n").exists()
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(root / "seq"))
        assert code == 1 and "--out" in err
        code, _, _ = run(capsys, "infer", "--seq", str(root / "seq"), "--dump-config")
        assert code == 1

    def test_infer_dump_config_needs_the_checkpoint(self, trained, capsys):
        root, seq, _ = trained
        code, out, err = run(capsys, "infer", "--ckpt", str(root / "missing.hst"),
                             "--seq", str(seq), "--out", str(root / "d"), "--dump-config")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_infer_missing_sequence_is_data_error(self, trained, capsys):
        root, _, ckpt = trained
        code, _, _ = run(capsys, "infer", "--ckpt", str(ckpt), "--seq",
                         str(root / "nothing"), "--out", str(root / "y"))
        assert code == 2

    def test_infer_malformed_mask_header_is_data_error(self, trained, tmp_path, capsys):
        root, seq, ckpt = trained
        bad = tmp_path / "badseq"
        (bad / "frames").mkdir(parents=True)
        (bad / "masks").mkdir()
        for name in ("00000.ppm", "00001.ppm"):
            (bad / "frames" / name).write_bytes((seq / "frames" / name).read_bytes())
        (bad / "masks" / "00000.pgm").write_bytes(b"P5 x 4 255\n" + bytes(16))
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(bad),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert "header field" in err

    def test_infer_missing_checkpoint_is_data_error(self, trained, capsys):
        root, seq, _ = trained
        code, _, err = run(capsys, "infer", "--ckpt", str(root / "missing.hst"),
                           "--seq", str(seq), "--out", str(root / "z"))
        assert code == 2
        assert "error:" in err

    def test_infer_f64_checkpoint_is_data_error(self, trained, tmp_path, capsys):
        from oracles import write_f64_checkpoint

        _, seq, _ = trained
        ckpt = tmp_path / "f64.hst"
        write_f64_checkpoint(init_model(ModelConfig(variant="nano"), seed=0), ckpt)
        code, out, err = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
                             "--out", str(tmp_path / "pred"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "unknown dtype tag 1 " in err
        assert sorted(os.listdir(tmp_path)) == ["f64.hst"]

    def test_infer_version_1_checkpoint_is_data_error(self, trained, tmp_path, capsys):
        from oracles import write_version_1_checkpoint

        _, seq, _ = trained
        ckpt = tmp_path / "v1.hst"
        write_version_1_checkpoint(init_model(ModelConfig(variant="nano"), seed=0), ckpt)
        code, out, err = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
                             "--out", str(tmp_path / "pred"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "unsupported format version 1," in err
        assert sorted(os.listdir(tmp_path)) == ["v1.hst"]

    def test_infer_read_mode_switch(self, trained, capsys):
        root, seq, ckpt = trained
        code, _, _ = run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
                         "--out", str(root / "pred_ls"), "--k", "16",
                         "--read-mode", "last_stage_only")
        assert code == 0
        assert (root / "pred_ls" / "00001.pgm").exists()

    def test_eval_reports_tsv(self, trained, capsys):
        root, seq, ckpt = trained
        pred = root / "pred_eval"
        run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
            "--out", str(pred), "--k", "16")
        code, out, _ = run(capsys, "eval", "--pred", str(pred), "--gt", str(seq))
        assert code == 0
        lines = [l for l in out.splitlines() if "\t" in l]
        assert lines[0] == "object\tframe\tJ\tF"
        assert lines[-1].startswith("J&F\t")
        assert lines[-2].startswith("mean\t")

    def test_eval_to_file(self, trained, capsys):
        root, seq, ckpt = trained
        pred = root / "pred_eval2"
        run(capsys, "infer", "--ckpt", str(ckpt), "--seq", str(seq),
            "--out", str(pred), "--k", "16")
        out_file = root / "report.tsv"
        code, _, _ = run(capsys, "eval", "--pred", str(pred), "--gt", str(seq),
                         "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("object\tframe\tJ\tF\n")


class TestGradcheckCommand:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        assert "seed=1234" in out.splitlines()
        assert "matmul" in out and "FAIL" not in out

    def test_suite_default_seed_is_the_command_default(self, capsys, monkeypatch):
        # the suite has no seed of its own: the command passes its default
        from swinvos import gradsuite
        from swinvos.config import GRADCHECK_SEED

        seen = []
        monkeypatch.setattr(gradsuite, "run_suite", lambda seed: seen.append(seed) or [])
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0 and seen == [GRADCHECK_SEED]
        assert f"seed={GRADCHECK_SEED}" in out.splitlines()

    def test_seed_zero_reaches_the_suite(self, capsys, monkeypatch):
        from swinvos import gradsuite

        seen = []
        monkeypatch.setattr(gradsuite, "run_suite", lambda seed: seen.append(seed) or [])
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0 and seen == [0] and "seed=0" in out.splitlines()

    def test_turns_finite_checks_on_for_the_run(self, capsys, monkeypatch):
        from swinvos import engine, gradsuite

        seen = []

        def recording(seed):
            seen.append(engine._FINITE_CHECKS)
            return []

        monkeypatch.setattr(gradsuite, "run_suite", recording)
        previous = engine.set_finite_checks(False)
        try:
            code, _, _ = run(capsys, "gradcheck")
            after = engine._FINITE_CHECKS
        finally:
            engine.set_finite_checks(previous)
        assert code == 0 and seen == [True] and after is False


    def test_failing_row_exits_3_with_one_error_line(self, capsys, monkeypatch):
        from swinvos import gradsuite

        monkeypatch.setattr(gradsuite, "run_suite",
                            lambda seed: [("matmul", True, 1e-11, 1e-5),
                                          ("softmax", False, 0.5, 1e-5)])
        code, out, err = run(capsys, "gradcheck")
        assert code == 3
        assert err.splitlines() == ["error: gradient check failed"]
        assert "FAIL" in out.splitlines()[-1] and "FAIL" not in out.splitlines()[-2]


class TestBenchCommand:
    def test_csv_structure(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench-memread", "--height", "64", "--width", "64",
                         "--t", "2", "--dim", "8", "--k", "4", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "stage,mode,k,T,H,W,flops,wall_ns"
        assert any(line.startswith("all,dense_all") for line in lines)
        assert any(line.startswith("all,hierarchical_topk") for line in lines)

    def test_bad_extents(self, capsys):
        code, _, _ = run(capsys, "bench-memread", "--height", "60", "--width", "64")
        assert code == 1

    def test_unknown_mode_rejected_before_any_read(self, tmp_path, capsys, monkeypatch):
        from swinvos import memread

        calls = []
        real = memread.dense_read

        def counting_dense_read(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(memread, "dense_read", counting_dense_read)
        out_csv = tmp_path / "bench.csv"
        code, _, err = run(capsys, "bench-memread", "--height", "64", "--width", "64",
                           "--t", "2", "--dim", "8", "--k", "4",
                           "--modes", "dense_all,sparse", "--out", str(out_csv))
        assert code == 1
        assert "sparse" in err
        assert calls == []
        assert not out_csv.exists()

    @pytest.mark.parametrize("modes", ["", " , "])
    def test_empty_modes_rejected(self, tmp_path, capsys, modes):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench-memread", "--height", "64", "--width", "64",
                         "--modes", modes, "--out", str(out_csv))
        assert code == 1
        assert not out_csv.exists()


# counts, extents and learning rates out of range: each is a usage or
# config error (exit 1) that writes nothing
_BAD_COUNTS = [
    ("bench-memread", "--t", "-1"),
    ("bench-memread", "--t", "0"),
    ("bench-memread", "--height", "-32"),
    ("bench-memread", "--height", "0"),
    ("bench-memread", "--width", "-32"),
    ("bench-memread", "--dim", "4"),
    ("bench-memread", "--dim", "0"),
    ("gen", "--frames", "0"),
    ("gen", "--frames", "-3"),
    ("train-toy", "--steps", "-5"),
    ("train-toy", "--steps", "1", "--lr", "nan"),
    ("train-toy", "--steps", "1", "--lr", "inf"),
    ("train-toy", "--steps", "0", "--lr", "-1"),
    ("eval", "--tolerance", "-3"),
    ("--threads", "-4", "gen"),
]

# the flag each command writes its output to
_OUTPUT_FLAG = {"gen": "--out", "train-toy": "--ckpt", "bench-memread": "--out",
                "eval": "--out"}


def _eval_inputs(tmp_path, capsys):
    """A generated sequence scored against its own masks."""
    seq = tmp_path / "seq"
    run(capsys, "gen", "--out", str(seq), "--frames", "2")
    return "--pred", str(seq / "masks"), "--gt", str(seq)


@pytest.mark.parametrize("argv", _BAD_COUNTS, ids=" ".join)
def test_bad_count_or_extent_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    command = next(a for a in argv if a in _OUTPUT_FLAG)
    inputs = _eval_inputs(tmp_path, capsys) if command == "eval" else ()
    code, _, err = run(capsys, *argv, *inputs, _OUTPUT_FLAG[command], str(out))
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists() and not (tmp_path / "out.loss.csv").exists()


# every seed flag: numpy rejects a negative seed, so the CLI must first
_NEGATIVE_SEEDS = [
    ("gen", "--out", "out", "--seed", "-1"),
    ("train-toy", "--steps", "1", "--ckpt", "out", "--seed", "-1"),
    ("train-toy", "--steps", "1", "--ckpt", "out", "--data-seed", "-1"),
    ("gradcheck", "--seed", "-1"),
    ("bench-memread", "--out", "out", "--seed", "-1"),
]


@pytest.mark.parametrize("argv", _NEGATIVE_SEEDS, ids=" ".join)
def test_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "seed must be at least 0" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [("--ckpt", "missing/c.hst"),
                                   ("--ckpt", "c.hst", "--loss-csv", "missing/l.csv")])
def test_train_missing_output_directory_fails_before_training(tmp_path, capsys,
                                                              monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "train-toy", "--steps", "1", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "missing" in err
    assert list(tmp_path.iterdir()) == []


def test_huge_tolerance_stays_valid(tmp_path, capsys):
    report = tmp_path / "report.tsv"
    code, _, _ = run(capsys, "eval", *_eval_inputs(tmp_path, capsys),
                     "--tolerance", "1000000000", "--out", str(report))
    assert code == 0
    assert report.read_text().splitlines()[-1].split() == ["J&F", "-", "1.000000"]


def test_eval_ground_truth_without_objects_is_data_error(tmp_path, capsys):
    from swinvos.data import read_pgm, write_pgm

    seq = tmp_path / "seq"
    run(capsys, "gen", "--out", str(seq), "--frames", "4", "--size", "32")
    for path in (seq / "masks").iterdir():
        write_pgm(read_pgm(path) * 0, path)
    report = tmp_path / "report.tsv"
    code, _, err = run(capsys, "eval", "--pred", str(seq / "masks"), "--gt", str(seq),
                       "--out", str(report))
    assert code == 2
    assert err.startswith("error: ") and "no object" in err
    assert not report.exists()


# flags that only repeated the checkpoint or changed nothing: gone, so exit 1
_REMOVED_FLAGS = [
    ("infer", "--variant", "T"),
    ("infer", "--encoder-mode", "image_only"),
    ("infer", "--no-other-mask"),
    ("infer", "--seed", "1"),
    ("train-toy", "--memory", "firstprev"),
    ("eval", "--seed", "1"),
]


@pytest.mark.parametrize("argv", _REMOVED_FLAGS, ids=" ".join)
def test_removed_flag_is_usage_error(trained, tmp_path, capsys, argv):
    _, seq, ckpt = trained
    out = tmp_path / "out"
    inputs = {"infer": ("--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out)),
              "train-toy": ("--steps", "1", "--ckpt", str(out)),
              "eval": ("--pred", str(seq / "masks"), "--gt", str(seq), "--out", str(out))}
    code, stdout, err = run(capsys, *argv, *inputs[argv[0]])
    assert code == 1 and stdout == ""
    assert "unrecognized arguments" in err
    assert not out.exists() and not (tmp_path / "out.loss.csv").exists()


def test_train_zero_steps_stays_valid(tmp_path, capsys):
    ckpt = tmp_path / "m.npz"
    code, out, _ = run(capsys, "train-toy", "--steps", "0", "--ckpt", str(ckpt))
    assert code == 0 and "trained 0 steps" in out
    assert ckpt.exists()
    # with no step to take, a sequence too short to train on is no error
    seq = _unusable_sequence(tmp_path, "two-frames")
    code, _, _ = run(capsys, "train-toy", "--seq", str(seq), "--steps", "0",
                     "--ckpt", str(tmp_path / "short.hst"))
    assert code == 0 and (tmp_path / "short.hst").exists()


def test_zero_tolerance_and_threads_stay_valid(tmp_path, capsys):
    report = tmp_path / "report.tsv"
    code, _, _ = run(capsys, "eval", *_eval_inputs(tmp_path, capsys),
                     "--tolerance", "0", "--out", str(report))
    assert code == 0
    assert report.read_text().splitlines()[-1].split() == ["J&F", "-", "1.000000"]
    code, _, _ = run(capsys, "--threads", "0", "gen", "--out", str(tmp_path / "s"),
                     "--frames", "1")
    assert code == 0 and (tmp_path / "s" / "frames" / "00000.ppm").exists()


def _unusable_sequence(root, case):
    """A sequence that cannot seed a run: no object, or too short to train on."""
    from swinvos.data import read_pgm, write_pgm

    seq = root / "seq"
    main(["gen", "--out", str(seq), "--frames", "2" if case == "two-frames" else "4"])
    if case == "no-object":
        for path in (seq / "masks").iterdir():
            write_pgm(read_pgm(path) * 0, path)
    return seq


@pytest.mark.parametrize("command, case", [("infer", "no-object"),
                                           ("train-toy", "no-object"),
                                           ("train-toy", "two-frames")])
def test_unusable_sequence_is_data_error_before_the_model(trained, tmp_path, capsys,
                                                           monkeypatch, command, case):
    import swinvos.checkpoint as checkpoint_module
    import swinvos.model as model_module

    seq = _unusable_sequence(tmp_path, case)
    out = tmp_path / "out"
    capsys.readouterr()

    def no_model(*args):
        raise AssertionError("the model was built before the sequence was checked")

    monkeypatch.setattr(model_module, "init_model", no_model)
    monkeypatch.setattr(checkpoint_module, "load_checkpoint", no_model)
    inputs = {"infer": ("--ckpt", str(trained[2]), "--out", str(out)),
              "train-toy": ("--steps", "1", "--ckpt", str(out))}
    code, stdout, err = run(capsys, command, "--seq", str(seq), *inputs[command])
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(seq) in err
    assert sorted(os.listdir(tmp_path)) == ["seq"]
