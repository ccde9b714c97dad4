#!/usr/bin/env python3
"""End-to-end contract of the dstc_sim command line.

Runs the built binary. Every accepted invocation (the README examples
and the CLI smoke list) must exit 0; every rejected one must exit
exactly 2 with an error on stderr; and the README's CLI block must be
the usage that `dstc_sim` prints with no arguments, so the two cannot
drift apart. Every accepted `serve` and `cluster` invocation must also
print byte-identical stdout when run twice.

Run: python3 tools/test_dstc_sim_cli.py path/to/dstc_sim [REPO_ROOT]
         [--dump DIR]
(REPO_ROOT defaults to this script's parent directory; the corpus
paths below are relative to it.) With --dump DIR, the stdout of the
N-th accepted invocation is also written to DIR/NNN.txt (000, 001,
...), so two builds' outputs compare with one `diff -r`.
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest
from concurrent.futures import ThreadPoolExecutor

DSTC_SIM = None
DUMP_DIR = None
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Accepted invocations: each must exit 0.
POSITIVE = [
    # CLI smoke
    "backends",
    "backends 512 512 512 --a-sparsity 0.7 --b-sparsity 0.5 --cluster 8",
    "gemm 1024 1024 1024 --a-sparsity 0.7 --b-sparsity 0.8 --method auto",
    "gemm 1024 512 512 --a-sparsity 0.6 --b-sparsity 0.5 --cluster 8"
    " --method hybrid",
    "gemm 512 512 512 --a-sparsity 0.5 --b-sparsity 0.5 --method hybrid"
    " --hybrid-threshold 0.5",
    "gemm 1024 1024 1024 --a-sparsity 0.9 --b-sparsity 0.9 --dtype int8"
    " --method dual",
    "gemm 512 512 512 --a-sparsity 0.8 --b-sparsity 0.8 --dtype bf16"
    " --method auto",
    "model resnet18 --dtype int8",
    "conv --in-c 64 --hw 28 --out-c 64 --wsp 0.9 --asp 0.8 --method dual",
    "conv --in-c 32 --hw 14 --out-c 32 --method auto --explicit",
    "model resnet18 --method auto",
    "cluster resnet18 --devices v100,a100,future --policy cost"
    " --method auto",
    "serve mix --devices v100,future --policy deadline --admission shed"
    " --pattern bursty --rate 800 --duration 1 --seed 3",
    "serve resnet18 --policy rr --rate 300 --duration 1",
    ["serve", "mix", "--devices", "v100,future", "--rate", "800",
     "--duration", "1", "--faults", "crash@500:d1;transient:p0.02",
     "--retry", "--hedge", "--seed", "7"],
    "spmm 1024 32 1024 --a-sparsity 0.995 --method auto",
    "spmm corpus/cora_like.mtx 32",
    "spmm corpus/stencil5.mtx 32 --format narrow --dtype int8",
    "spmm corpus/web_like.mtx 32 --method hybrid",
    "backends --mtx corpus/ppi_like.mtx --n 32",
    "overhead",
    # README examples
    "gemm 4096 4096 4096 --a-sparsity 0.9 --b-sparsity 0.9 --method auto",
    "gemm 4096 4096 4096 --a-sparsity 0.9 --b-sparsity 0.9 --dtype int8"
    " --method dual",
    "model vgg16 --method auto",
    "cluster resnet18 --devices v100,future --policy cost --replicate 4",
    "serve mix --devices v100,future --pattern bursty --rate 800",
    ["serve", "mix", "--devices", "v100,future", "--rate", "800",
     "--faults", "crash@500:d1", "--retry"],
    "spmm corpus/roadnet_like.mtx 64 --method auto",
    "backends 512 512 512 --a-sparsity 0.7 --b-sparsity 0.5",
    "spmm 4096 32 4096 --a-sparsity 0.995",
    "spmm corpus/stencil5.mtx 32 --format narrow",
    ["serve", "mix", "--devices", "v100,future", "--rate", "800",
     "--faults", "crash@500:d1;slow@200+400x2.5:d0;transient:p0.05",
     "--retry", "--hedge"],
    # every flag of a form at once, and --a100 before the command
    "conv --in-c 16 --hw 14 --out-c 32 --kernel 3 --stride 2 --pad 0"
    " --batch 2 --seed 5 --cluster 2 --act-cluster 1 --wsp 0.5 --asp 0.5"
    " --a100",
    "spmm 256 32 256 --a-sparsity 0.9 --cluster 4 --seed 3 --format wide"
    " --method hybrid --hybrid-threshold 0.5 --dtype fp32",
    "spmm corpus/ppi_like.mtx --seed 4 --hybrid-threshold 0.5 --a100",
    "backends 256 256 256 --a-sparsity 0.8 --b-sparsity 0.3 --cluster 2"
    " --seed 9 --hybrid-threshold 0.5 --a100",
    "backends --a100",
    "--a100 model resnet18 --seed 4 --dtype bf16",
    "cluster rnn --devices future,v100 --replicate 2 --seed 5",
    "serve mix --rate 800 --duration 1.5 --depth 64 --policy deadline"
    " --faults crash@500:d1 --retry --retry-budget 4 --backoff 12.5"
    " --hedge --fault-seed 9",
    "serve bert --microbatch 2 --no-failover --no-degrade --duration 1"
    " --faults randcrash:2 --method dense",
    "overhead --a100",
]
# every value of every declared vocabulary
POSITIVE += [f"gemm 128 128 128 --a-sparsity 0.5 --b-sparsity 0.5"
             f" --method {m}" for m in
             ("auto", "dual", "dense", "zhu", "ampere", "cusparse",
              "hybrid")]
POSITIVE += [f"gemm 128 128 128 --a-sparsity 0.5 --dtype {d}"
             for d in ("fp32", "fp16", "bf16", "int8", "int4")]
POSITIVE += [f"overhead --dtype {d}"
             for d in ("fp32", "fp16", "bf16", "int8", "int4")]
POSITIVE += [f"spmm corpus/cora_like.mtx 16 --method {m}"
             for m in ("auto", "dual", "dense", "cusparse", "hybrid")]
POSITIVE += [f"spmm corpus/cora_like.mtx 16 --format {f}"
             for f in ("auto", "narrow", "wide")]
POSITIVE += [f"conv --in-c 16 --hw 8 --out-c 16 --method {m}"
             for m in ("auto", "dual", "dense", "zhu")]
POSITIVE += [f"model {z}" for z in
             ("vgg16", "resnet18", "maskrcnn", "bert", "rnn")]
POSITIVE += [f"model rnn --method {m}"
             for m in ("auto", "dual", "dense", "single")]
POSITIVE += [f"cluster rnn --policy {p}" for p in ("cost", "rr", "shard")]
POSITIVE += [f"serve rnn --duration 0.5 {flag}" for flag in
             ("--policy deadline", "--policy cost", "--policy rr",
              "--admission reject", "--admission shed",
              "--pattern poisson", "--pattern bursty")]

MNK = "gemm 64 64 64"
MTX = "corpus/cora_like.mtx"
CONV = "conv --in-c 8 --hw 8 --out-c 8"

# Rejected invocations: each must exit exactly 2. BAD_MTX is replaced
# by the path of a malformed Matrix Market file.
NEGATIVE = [
    "",
    "frobnicate",
    MNK + " --typo 1",
    "cluster resnet18 --a100",
    "serve resnet18 --a100",
    "gemm 0 8 8",
    "backends 8 x 8",
    ["serve", "mix", "--faults", "crash@oops:d1"],
    ["serve", "mix", "--faults", "crash@nan:d1"],
    "spmm BAD_MTX 32",
    MNK + " --method hybrid --dtype int8",
    CONV + " --explicit --method dual",
    # a bad choice value
    MNK + " --method bogus",
    MNK + " --dtype fp8",
    "model resnet18 --method zhu",
    "cluster resnet18 --policy deadline",
    "serve mix --admission drop",
    "spmm " + MTX + " --format tall",
    # out-of-range values
    MNK + " --a-sparsity 1.5",
    MNK + " --b-sparsity -0.1",
    MNK + " --cluster 0.5",
    CONV + " --act-cluster 0",
    "serve mix --rate 0",
    "serve mix --duration -1",
    "cluster resnet18 --replicate 0",
    # flags the chosen form ignores
    "spmm " + MTX + " 8 --a-sparsity 0.5 --cluster 9",
    "spmm " + MTX + " --a-sparsity 0.5",
    "spmm " + MTX + " --cluster 9",
    "backends --mtx " + MTX + " --a-sparsity 0.5",
    "backends --mtx " + MTX + " --b-sparsity 0.5",
    "backends --mtx " + MTX + " --cluster 2",
    "backends --mtx " + MTX + " --seed 3",
    "backends --mtx " + MTX + " --hybrid-threshold 0.5",
    "backends --a-sparsity 0.5",
    "backends --b-sparsity 0.5",
    "backends --cluster 2",
    "backends --seed 3",
    "backends --hybrid-threshold 0.5",
    "backends --n 8",
    # malformed values, stray and missing arguments
    "serve mix --rate fast",
    "serve mix --depth 1e3",
    "serve mix --retry-budget two",
    "serve mix --backoff soon",
    "serve mix --fault-seed -1",
    "serve mix --retry-budget 0",
    "serve mix --backoff -1",
    "serve mix --qos gold",
    "serve mix --faults",
    "backends --mtx",
    MNK + " --seed 1e3",
    CONV + " --hw 99999999999",
    "conv --in-c 8 --hw 2 --out-c 8 --kernel 5 --pad 0",
    "conv --in-c 8 --hw 8",
    "gemm 64 64",
    "model resnet18 extra",
    "model resnet18 --batched",
    CONV + " --explicit bogus",
    "model resnet19",
    "cluster mix",
    "cluster resnet18 --devices v100,tpu",
    # a repeated flag
    MNK + " --seed 1 --seed 2",
]


def argv(case, bad_mtx=""):
    args = case.split() if isinstance(case, str) else list(case)
    return [bad_mtx if a == "BAD_MTX" else a for a in args]


# A rejected invocation fails while parsing its flags, so one that runs
# for seconds is a hang (e.g. a fault spec the parser let through).
ACCEPTED_TIMEOUT_S = 600
REJECTED_TIMEOUT_S = 30


def run(args, timeout=ACCEPTED_TIMEOUT_S):
    try:
        return subprocess.run([DSTC_SIM] + args, cwd=REPO_ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(
            args, None, "", f"timed out after {timeout} s")


def run_all(cases, bad_mtx="", timeout=ACCEPTED_TIMEOUT_S):
    """Run every case, four at a time (sanitized builds are slow)."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(lambda c: run(argv(c, bad_mtx), timeout),
                             cases))


def readme_cli_block():
    """The fenced block under README's "The `dstc_sim` CLI" heading."""
    with open(os.path.join(REPO_ROOT, "README.md")) as f:
        text = f.read()
    match = re.search(r"^## The `dstc_sim` CLI\n\n```text\n(.*?)^```$",
                      text, re.S | re.M)
    return match.group(1) if match else None


class DstcSimCli(unittest.TestCase):
    def test_accepted_invocations_exit_zero(self):
        if DUMP_DIR:
            os.makedirs(DUMP_DIR, exist_ok=True)
        for i, (case, proc) in enumerate(zip(POSITIVE,
                                             run_all(POSITIVE))):
            if DUMP_DIR:
                with open(os.path.join(DUMP_DIR, f"{i:03d}.txt"),
                          "w") as f:
                    f.write(proc.stdout)
            with self.subTest(case=case):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(proc.stdout)

    def test_serve_and_cluster_stdout_is_reproducible(self):
        # dstc_sim prints no wall-clock values: a serving or cluster
        # run is a pure function of its flags, byte for byte.
        cases = [c for c in POSITIVE if argv(c)[0] in ("serve", "cluster")]
        for case, first, second in zip(cases, run_all(cases),
                                       run_all(cases)):
            with self.subTest(case=case):
                self.assertEqual(first.returncode, 0, first.stderr)
                self.assertEqual(first.stdout, second.stdout)

    def test_model_and_cluster_name_the_strategy_by_its_legend(self):
        # model and cluster headers name the strategy as the Fig. 22
        # legend does (or "Auto").
        cases = {
            "model rnn --method auto": "RNN under Auto (",
            "model rnn --method dual": "under Dual Sparse Implicit (",
            "model rnn --method dense": "under Dense Implicit (",
            "model rnn --method single": "under Single Sparse Implicit (",
            "cluster rnn --method auto": " under Auto on ",
            "cluster rnn --method dual": " under Dual Sparse Implicit on ",
        }
        for (case, expected), proc in zip(cases.items(),
                                          run_all(list(cases))):
            with self.subTest(case=case):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertIn(expected, proc.stdout)

    def test_rejected_invocations_exit_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad_mtx = os.path.join(tmp, "bad.mtx")
            with open(bad_mtx, "w") as f:
                f.write("not a matrix market file\n")
            for case, proc in zip(NEGATIVE,
                                  run_all(NEGATIVE, bad_mtx,
                                          REJECTED_TIMEOUT_S)):
                with self.subTest(case=case):
                    self.assertEqual(proc.returncode, 2,
                                     proc.stdout + proc.stderr)
                    self.assertTrue(proc.stderr.strip())

    def test_readme_shows_the_generated_usage(self):
        usage = run([]).stderr
        self.assertEqual(readme_cli_block(), usage)


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--dump" in args:
        i = args.index("--dump")
        if i + 1 == len(args):
            sys.exit(__doc__)
        DUMP_DIR = os.path.abspath(args[i + 1])
        del args[i:i + 2]
    if not args:
        sys.exit(__doc__)
    DSTC_SIM = os.path.abspath(args[0])
    if len(args) > 1:
        REPO_ROOT = os.path.abspath(args[1])
    unittest.main(argv=sys.argv[:1])
