"""The benchmark's workloads: set-up, one pass of each closed loop, and the checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished, and at most one child process runs at a
time.  Inputs come from ``palmroi.synth.generate_corpus`` with the run's
seed; the program sees only the generated files.

A pass runs the timed operations and returns their seconds; ``check`` then
verifies the pass's outputs, untimed and outside any trace.  An operation
fails when it raises, exits nonzero, gives an ``identify``/``verify``
answer other than the brute-force 1-NN below, a CLI output other than the
in-process output on the same inputs, or an output whose SHA-256 differs
from the first pass that produced it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "palmroi" / "__init__.py").is_file():
    raise SystemExit(f"pipebench: no palmroi sources under {SRC}")
sys.path.insert(0, str(SRC))

from palmroi import cli, evaluate, features, image, matcher, synth  # noqa: E402

TAU = 0.25  # the README's example verify threshold
K = 16


class Log:
    """Latency samples and attempted/failed operation counts of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed_ops: set[int] = set()

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def begin(self) -> int:
        """Start an operation; returns its id for failures found later."""
        self.attempted += 1
        return self.attempted

    def timed(self, name: str, fn, *args):
        """Run and time one operation; None if it raised."""
        self.begin()
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.fail(f"{name} raised\n{traceback.format_exc()}")
            return None
        self.samples[name].append(perf_counter() - start)
        return result

    def check(self, ok: bool, what: str, op: int | None = None) -> bool:
        if not ok:
            self.fail(what, op)
        return ok

    def fail(self, what: str, op: int | None = None) -> None:
        """Count operation op (default: the latest) as failed, once."""
        self.failed_ops.add(self.attempted if op is None else op)
        if len(self.failed_ops) <= 5:
            print(f"pipebench: FAILED: {what}", file=sys.stderr)


class Digests:
    """SHA-256 of each named output; every later pass must reproduce the first."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def check(self, log: Log, name: str, data: bytes, op: int) -> None:
        digest = hashlib.sha256(data).hexdigest()
        expected = self.first.setdefault(name, digest)
        log.check(digest == expected, f"{name}: digest {digest[:12]} differs from first pass {expected[:12]}", op)


class Oracle:
    """Brute-force numpy 1-NN and verification over a loaded template DB."""

    def __init__(self, db):
        self.db = db
        self.matrix = np.stack([t.features for t in db.templates])
        self.palm_ids = np.array([t.palm_id for t in db.templates])

    def _distances(self, f):
        return np.sqrt(((self.matrix - np.asarray(f, dtype=np.float64)) ** 2).sum(axis=1))

    def identify(self, f) -> tuple[str, float]:
        d = self._distances(f)
        i = int(np.argmin(d))  # the first minimum: the first enrolled template wins ties
        return str(self.palm_ids[i]), float(d[i])

    def verify(self, f, claim: str, tau: float) -> bool:
        return bool(self._distances(f)[self.palm_ids == claim].min() <= tau)

    def check_identify(self, log: Log, f, answer, what: str, op: int | None = None, tol: float = 1e-9) -> None:
        palm, dist = self.identify(f)
        log.check(
            answer[0] == palm and abs(answer[1] - dist) <= tol,
            f"{what}: identify gave {answer[0]} {answer[1]:.9f}, 1-NN gives {palm} {dist:.9f}",
            op,
        )


def checked_identify(log: Log, identify):
    """``matcher.identify`` that also checks each Euclidean answer against the Oracle."""
    oracles = {}

    def wrapper(f, db, metric="euclidean"):
        answer = identify(f, db, metric)
        if metric == "euclidean":
            oracle = oracles.get(id(db))
            if oracle is None or oracle.db is not db:
                oracle = oracles[id(db)] = Oracle(db)
            oracle.check_identify(log, f, answer, "identify inside a pass")
        return answer

    return wrapper


def run_cli(argv: list[str]) -> str:
    """``palmroi`` in-process; its stdout, or RuntimeError on a nonzero exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"palmroi {' '.join(argv)} exited with {code}")
    return out.getvalue()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_rect(path: Path) -> image.RoiRect:
    return image.RoiRect(*(int(v) for v in path.read_text().split()))


def split_samples(entries, first_n: int):
    """(samples s00..s<first_n - 1> of every identity, the rest), manifest order kept."""
    head = [e for e in entries if int(e.sample_id[1:]) < first_n]
    return head, [e for e in entries if int(e.sample_id[1:]) >= first_n]


def claim_for(i: int, palm_id: str, palm_ids: list[str]) -> str:
    """Genuine claims on even probes, the next identity's on odd ones."""
    if i % 2 == 0:
        return palm_id
    return palm_ids[(palm_ids.index(palm_id) + 1) % len(palm_ids)]


class PaperEval:
    """The paper's experiment: ``run_evaluation`` with the CLI defaults on a 10x12 corpus."""

    name = "paper-eval"
    ops = ("evaluate",)

    def __init__(self, seed: int, root: Path):
        self.seed, self.root = seed, root
        self.digests = Digests()

    def setup(self) -> None:
        self.manifest, _ = synth.generate_corpus(10, 12, self.seed, fresh_dir(self.root / "corpus"))

    def run_pass(self, log: Log) -> float:
        self.result = log.timed("evaluate", evaluate.run_evaluation, self.manifest, evaluate.RunConfig())
        self.result_op = log.attempted
        return log.samples["evaluate"][-1] if self.result is not None else 0.0

    def check(self, log: Log) -> None:
        if self.result is not None:
            self.digests.check(log, "evaluate.csv", self.result.to_csv().encode(), self.result_op)

    def report(self, log: Log) -> list[str]:
        evals = log.samples["evaluate"]
        return [f"eval_s {median(evals):.4f} s median (n={len(evals)})"]


class GalleryProbe:
    """Enroll 12 of 16 samples of 60 identities, then probe with the other 240."""

    name = "gallery-probe"
    ops = ("probe",)

    def __init__(self, seed: int, root: Path):
        self.seed, self.root = seed, root
        self.digests = Digests()

    def setup(self) -> None:
        corpus = fresh_dir(self.root / "corpus")
        _, entries = synth.generate_corpus(60, 16, self.seed, corpus)
        enrolled, self.probes = split_samples(entries, 12)
        self.enroll_manifest = corpus / "enroll.tsv"
        synth.write_manifest(enrolled, self.enroll_manifest)
        self.palm_ids = sorted({e.palm_id for e in entries})

    def _enroll(self, db_path: Path, rect_path: Path):
        """Images on disk to the reloaded DB: ``palmroi enroll --roi auto``, then ``load_db``."""
        run_cli(["enroll", "--manifest", str(self.enroll_manifest), "--k", str(K),
                 "--out", str(db_path), "--roi", "auto", "--roi-out", str(rect_path)])
        return matcher.load_db(db_path)

    @staticmethod
    def _probe(path, rect, db, claim):
        f = features.extract_features(image.load_pgm(path), rect, db.k)
        return f, matcher.identify(f, db), matcher.verify(f, db, claim, TAU)

    def run_pass(self, log: Log) -> float:
        db_path, rect_path = self.root / "gallery.tsv", self.root / "gallery.rect"
        self.pending = []
        self.db = log.timed("enroll", self._enroll, db_path, rect_path)
        if self.db is None:
            return 0.0
        self.enroll_op = log.attempted
        seconds = log.samples["enroll"][-1]
        self.outputs = {"gallery.tsv": db_path.read_bytes(), "gallery.rect": rect_path.read_bytes()}
        rect = read_rect(rect_path)
        for i, entry in enumerate(self.probes):
            claim = claim_for(i, entry.palm_id, self.palm_ids)
            answer = log.timed("probe", self._probe, entry.path, rect, self.db, claim)
            if answer is not None:
                seconds += log.samples["probe"][-1]
                self.pending.append((log.attempted, entry.path.name, claim, *answer))
        return seconds

    def check(self, log: Log) -> None:
        if self.db is None:
            return
        for name, data in self.outputs.items():
            self.digests.check(log, name, data, self.enroll_op)
        oracle = Oracle(self.db)
        predictions = []
        for op, name, claim, f, (palm, dist), accepted in self.pending:
            oracle.check_identify(log, f, (palm, dist), name, op)
            log.check(accepted == oracle.verify(f, claim, TAU), f"{name}: verify {claim} gave {accepted}", op)
            predictions.append(f"{name}\t{claim}\t{palm}\t{dist:.6f}\t{accepted}\n")
        if self.pending:
            self.digests.check(log, "predictions", "".join(predictions).encode(), self.pending[-1][0])

    def report(self, log: Log) -> list[str]:
        enrolls, probes = log.samples["enroll"], log.samples["probe"]
        return [
            f"enroll_s {median(enrolls):.4f} s median (n={len(enrolls)})",
            f"probe_p50_ms {percentile(probes, 50) * 1e3:.4f} ms, probe_p90_ms "
            f"{percentile(probes, 90) * 1e3:.4f} ms (n={len(probes)})",
        ]


class CliOneshot:
    """One fresh ``python -m palmroi.cli`` per subcommand, the way a shell script calls it.

    A pass runs ``extract-roi``, ``identify`` and ``verify`` on one held-out
    image against a 60-template DB, then ``enroll --roi auto`` over the
    whole 10x12 corpus.  With ``spawn`` off (the traced run) the same
    commands run in-process through ``cli.main``, so the trace sees into them.
    """

    name = "cli-oneshot"
    COMMANDS = ("extract-roi", "identify", "verify", "enroll")
    ops = COMMANDS[:3]  # the single-image calls; nearly all interpreter start and imports

    def __init__(self, seed: int, root: Path):
        self.seed, self.root = seed, root
        self.digests = Digests()
        self.spawn = True
        self.passes = 0
        self.references: dict[str, tuple[str, dict[str, bytes]]] = {}
        pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def setup(self) -> None:
        corpus = fresh_dir(self.root / "corpus")
        self.manifest, entries = synth.generate_corpus(10, 12, self.seed, corpus)
        gallery, self.probes = split_samples(entries, 6)
        gallery_manifest = corpus / "gallery.tsv"
        synth.write_manifest(gallery, gallery_manifest)
        self.db_path, self.rect_path = corpus / "db60.tsv", corpus / "db60.rect"
        run_cli(["enroll", "--manifest", str(gallery_manifest), "--k", str(K),
                 "--out", str(self.db_path), "--roi", "auto", "--roi-out", str(self.rect_path)])
        self.palm_ids = sorted({e.palm_id for e in entries})

    def _command(self, name: str, probe, claim: str, out: Path) -> tuple[list[str], list[Path]]:
        """argv of one subcommand and the files it writes under out."""
        roi = ["--roi", f"@{self.rect_path}"]
        if name == "extract-roi":
            return ["extract-roi", str(probe.path), "--out", str(out / "roi.pgm")], [out / "roi.pgm", out / "roi.pgm.rect"]
        if name == "identify":
            return ["identify", "--db", str(self.db_path), "--image", str(probe.path), *roi], []
        if name == "verify":
            return ["verify", "--db", str(self.db_path), "--image", str(probe.path),
                    "--claim", claim, "--tau", str(TAU), *roi], []
        return (["enroll", "--manifest", str(self.manifest), "--k", str(K), "--out", str(out / "db.tsv"),
                 "--roi", "auto", "--roi-out", str(out / "db.rect")], [out / "db.tsv", out / "db.rect"])

    @staticmethod
    def _key(name: str, probe, claim: str) -> str:
        """What a command's outputs depend on besides the corpus."""
        if name == "enroll":
            return "enroll"
        return f"{name}:{probe.path.name}" + (f":{claim}" if name == "verify" else "")

    def _spawn(self, argv: list[str]) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "palmroi.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"palmroi {argv[0]} exited with {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def run_pass(self, log: Log) -> float:
        i = self.passes
        self.passes += 1
        probe = self.probes[i % len(self.probes)]
        claim = claim_for(i, probe.palm_id, self.palm_ids)
        out = fresh_dir(self.root / "run")
        self.pending = []
        seconds = 0.0
        for name in self.COMMANDS:
            argv, files = self._command(name, probe, claim, out)
            stdout = log.timed(name, self._spawn if self.spawn else run_cli, argv)
            if stdout is not None:
                seconds += log.samples[name][-1]
                outputs = {p.name: p.read_bytes() for p in files}
                self.pending.append((log.attempted, name, probe, claim, stdout.replace(str(out), "<out>"), outputs))
        return seconds

    def _reference(self, log: Log, op: int, name: str, probe, claim: str):
        """In-process (stdout, files) of one command; identify/verify checked against the Oracle."""
        key = self._key(name, probe, claim)
        if key not in self.references:
            out = fresh_dir(self.root / "reference")
            argv, files = self._command(name, probe, claim, out)
            stdout = run_cli(argv).replace(str(out), "<out>")
            self.references[key] = (stdout, {p.name: p.read_bytes() for p in files})
            if name in ("identify", "verify"):
                db = matcher.load_db(self.db_path)
                f = features.extract_features(image.load_pgm(probe.path), read_rect(self.rect_path), db.k)
                oracle = Oracle(db)
                if name == "identify":
                    palm, dist = stdout.split()
                    oracle.check_identify(log, f, (palm, float(dist)), f"{probe.path.name} in-process", op,
                                          tol=5.0001e-7)  # printed with 6 decimals
                else:
                    want = "accept" if oracle.verify(f, claim, TAU) else "reject"
                    log.check(stdout.strip() == want, f"{probe.path.name}: verify {claim} gave {stdout.strip()}", op)
        return self.references[key]

    def check(self, log: Log) -> None:
        for op, name, probe, claim, stdout, outputs in self.pending:
            want_stdout, want_outputs = self._reference(log, op, name, probe, claim)
            log.check(stdout == want_stdout, f"{name} {probe.path.name}: {stdout!r}, in-process {want_stdout!r}", op)
            log.check(outputs == want_outputs, f"{name} {probe.path.name}: output files differ from in-process", op)
            key = self._key(name, probe, claim)
            self.digests.check(log, f"{key}:stdout", stdout.encode(), op)
            for fname, data in sorted(outputs.items()):
                self.digests.check(log, f"{key}:{fname}", data, op)

    def import_ms(self, runs: int = 7) -> float:
        """Median wall ms of a fresh interpreter running ``import palmroi.cli``."""
        times = []
        for _ in range(runs):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import palmroi.cli"], env=self.env, check=True, timeout=120)
            times.append(perf_counter() - start)
        return median(times) * 1e3

    def report(self, log: Log) -> list[str]:
        return [
            f"cli_{name.replace('-', '_')}_ms {median(log.samples[name]) * 1e3:.4f} ms median (n={len(log.samples[name])})"
            for name in self.COMMANDS
        ]


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


WORKLOADS = {w.name: w for w in (PaperEval, GalleryProbe, CliOneshot)}
