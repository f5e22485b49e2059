#!/usr/bin/env python3
"""End-to-end benchmark of the `mrl` legalizer and its ECO server.

Drives the `mrl` binary the way users do: `mrl generate` makes the inputs
from the seed, then the run times `mrl legalize --aux ... --out ...` file to
file, or a `mrl serve --listen 127.0.0.1:0` session from a TCP client.
Per-layer numbers come from a separate traced run (`--trace 1`), which also
runs `perfbench-probe`: the same public functions called in process, each
call timed on its own (see probe/src/main.rs and README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout. It builds `mrl` and the probe with
cargo into $CARGO_TARGET_DIR (default `.bench_build`), works in
`.perfbench/`, and prints one JSON object as the last line of stdout.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = {
    "legalize_dense": ("batch", "des_perf_1"),
    "serve_eco": ("serve", "des_perf_1"),
}
MIN_OPS = 3  # batch operations per run even when --seconds is short
MIN_SESSIONS = 2  # serve sessions per run even when --seconds is short
SESSION_REQUESTS = 32  # requests per serve session; every session replays the same stream
EDITS_PER_REQUEST = 16
LISTEN_TIMEOUT_S = 60  # spawn to `serving on`
RESPONSE_TIMEOUT_S = 20  # one request's response
EXIT_TIMEOUT_S = 10  # server exit after the client's EOF

# Per-layer metrics whose layer is not on a workload's path read 0 there.
LAYER_ZERO = {
    "parsers.write_s": 0.0,
    "eco.apply_ms_p50": 0.0,
    "eco.apply_ms_p90": 0.0,
    "eco.touched": 0.0,
    "eco.moved": 0.0,
    "eco.mll_calls": 0.0,
    "eco.window_sites": 0.0,
    "eco.escalations": 0.0,
    "eco.applied_frac": 0.0,
    "eco.induced_disp_sites": 0.0,
    "eco.stream.parse_us": 0.0,
    "eco.stream.serialize_us": 0.0,
    "cli.wire_ms_p50": 0.0,
    "cli.wire_ms_p90": 0.0,
}


class BenchError(Exception):
    """A failure that leaves the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- build


def build():
    """Builds `mrl` and the probe from the checkout's sources."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository (no Cargo.toml / crates/cli)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["-p", "mrl-cli"], ["--manifest-path", "perfbench/probe/Cargo.toml"]):
        r = subprocess.run(
            ["cargo", "build", "--release", "--offline", "-q", *extra],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        )
        if r.returncode != 0:
            raise BenchError(f"cargo build {' '.join(extra)} failed")
    return target / "release" / "mrl", target / "release" / "perfbench-probe"


# ---------------------------------------------------------------- processes


def run_timed(argv, out_path):
    """Runs argv to completion with stdout+stderr in out_path.

    Returns (wall seconds, exit code, peak RSS in MB from wait4).
    """
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss / 1024.0


def run_json(argv):
    """Runs a probe command; returns (parsed JSON, wall seconds)."""
    t0 = time.perf_counter()
    r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv))} failed:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1]), wall


def wait_exit(p, timeout):
    """Reaps p within timeout seconds. Returns (exit code, peak RSS MB) or
    (None, None) after killing a process that did not exit."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            return p.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() >= deadline:
            p.kill()
            _, status, _ = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            return None, None
        time.sleep(0.005)


# ---------------------------------------------------------------- inputs


def generate(mrl, bench, args, d):
    """One `mrl generate` of the workload's design from the seed into d.

    Returns (wall seconds, digest of every file written, movable cells).
    """
    shutil.rmtree(d, ignore_errors=True)
    log_path = d.with_suffix(".log")
    wall, rc, _ = run_timed(
        [mrl, "generate", "--bench", bench, "--seed", str(args.seed), "--scale", str(args.scale), "--out", d],
        log_path,
    )
    text = log_path.read_text()
    if rc != 0:
        raise BenchError(f"mrl generate failed:\n{text}")
    files = sorted((f.name, digest(f)) for f in d.iterdir())
    return wall, files, int(re.search(r"(\d+) movable cells", text).group(1))


def remember(key, value):
    """Cross-run determinism: the first run of a seed records `value`, later
    runs of the same seed in this checkout must reproduce it."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == value
    known[key] = value
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


# ---------------------------------------------------------------- batch


QUALITY_RE = re.compile(r"displacement: avg (\S+) sites.*?HPWL: .*?\(([+-]?\S+)%\)", re.S)


def legalize_op(mrl, aux, out_dir, log_path):
    """One `mrl legalize` file→file operation. Returns (wall, rss, outcome)
    where outcome is (pl digest, avg_disp_sites, hpwl_delta_pct) or None."""
    pl = out_dir / aux.with_suffix(".pl").name
    if pl.exists():
        pl.unlink()
    wall, rc, rss = run_timed([mrl, "legalize", "--aux", aux, "--out", out_dir], log_path)
    m = QUALITY_RE.search(log_path.read_text())
    if rc != 0 or m is None or not pl.exists():
        return wall, rss, None
    return wall, rss, (digest(pl), float(m.group(1)), float(m.group(2)))


def run_batch(mrl, probe, workload, bench, args, work):
    wall, inputs, movable = generate(mrl, bench, args, work / "inputs")
    aux = work / "inputs" / f"{bench}.aux"
    setups = [wall]
    deterministic = True
    out_dir = work / "out"
    probe_dir = work / "probe_out"
    walls, rsss, traced = [], [], []
    attempted = failed = 0
    ref = None  # the first operation's result; every later one must match it
    deadline = time.perf_counter() + args.seconds
    for op in itertools.count():
        if op >= MIN_OPS and time.perf_counter() >= deadline:
            break
        wall, rss, outcome = legalize_op(mrl, aux, out_dir, work / "legalize.log")
        attempted += 1
        ref = ref or outcome
        if outcome is None or outcome != ref:
            failed += 1
            log(f"operation {op}: failed or differs from the first operation's output:\n"
                f"{(work / 'legalize.log').read_text()}")
            continue
        walls.append(wall)
        rsss.append(rss)
        if args.trace:
            # Alternate with the traced in-process operation.
            j, pwall = run_json([probe, "batch", "--aux", aux, "--out", probe_dir])
            attempted += 1
            if digest(probe_dir / f"{bench}.pl") != ref[0]:
                failed += 1
                log("probe placement differs from mrl legalize")
            traced.append((j, pwall))
        # One set-up sample per operation, so the samples span the run.
        wall, again, _ = generate(mrl, bench, args, work / "regen")
        setups.append(wall)
        if again != inputs:
            deterministic = False
            log("mrl generate wrote different files for the same seed")

    if not walls:
        raise BenchError("every mrl legalize operation failed")
    r = subprocess.run([mrl, "check", "--aux", out_dir / f"{bench}.aux"], capture_output=True, text=True)
    check_ok = r.returncode == 0 and "placement is legal" in r.stdout
    if not check_ok:
        log(f"mrl check rejected the output:\n{r.stdout}{r.stderr}")
    same = remember(f"{workload}:{args.seed}:{args.scale}", list(ref))
    if not same:
        log("output differs from an earlier run of this seed")
    correct = check_ok and same and deterministic and failed == 0

    if args.trace:
        return correct, attempted, failed, batch_layers(traced, walls)
    return correct, attempted, failed, {
        "setup_s": (min(setups), "s"),
        "best_ms": (min(walls) * 1e3, "ms"),
        "throughput": (movable / min(walls), "1/s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "avg_disp_sites": (ref[1], "sites"),
    }


def legalize_layers(runs, m):
    """legalize.*, escalate.* and ilp.* medians from LegalizeStats."""
    def med(key):
        return statistics.median(r[key] for r in runs)

    for phase in ("extract", "enumerate", "evaluate", "realize", "retry"):
        m[f"legalize.{phase}_s"] = med(f"{phase}_s")
        m[f"legalize.{phase}_calls"] = med(f"{phase}_calls")
    m["legalize.wall_s"] = med("wall_s")
    m["legalize.direct_cells"] = med("direct_cells")
    m["legalize.mll_cells"] = med("mll_cells")
    m["legalize.prune_ratio"] = statistics.median(
        r["combos_evaluated"] / r["combos_generated"] if r["combos_generated"] else 0.0 for r in runs)
    # evaluate runs inside enumerate; retry and escalate overlap the other
    # phases, so the disjoint phases are extract + enumerate + realize.
    m["legalize.residual_s"] = statistics.median(
        r["wall_s"] - r["extract_s"] - r["enumerate_s"] - r["realize_s"] for r in runs)
    m["escalate.s"] = med("escalate_s")
    m["escalate.engaged"] = med("escalate_engaged")
    m["escalate.ripple_waste"] = statistics.median(
        r["ripple_rolled_back"] / r["ripple_chains"] if r["ripple_chains"] else 0.0 for r in runs)
    m["ilp.solves"] = med("ilp_solves")


def batch_layers(traced, untraced_walls):
    runs = [j for j, _ in traced]

    def med(key):
        return statistics.median(j[key] for j in runs)

    def layers(j):
        return (j["read_s"] + j["state_build_s"] + j["legalize"]["call_s"] + j["check_s"]
                + j["quality_s"] + j["write_s"])

    m = dict(LAYER_ZERO)
    m["parsers.read_s"] = med("read_s")
    m["parsers.write_s"] = med("write_s")
    m["db.state_build_s"] = med("state_build_s")
    legalize_layers([j["legalize"] for j in runs], m)
    m["metrics.check_s"] = med("check_s")
    m["metrics.quality_s"] = med("quality_s")
    m["metrics.hpwl_delta_pct"] = med("hpwl_delta_pct")
    m["client.p50_ms"] = statistics.median(untraced_walls) * 1e3
    m["client.p90_ms"] = percentile(untraced_walls, 0.9) * 1e3
    m["proc.other_s"] = statistics.median(w - layers(j) for j, w in traced)
    m["ledger.coverage"] = statistics.median(layers(j) / w for j, w in traced)
    m["trace.best_ms"] = min(w for _, w in traced) * 1e3
    m["trace.overhead_ms"] = m["trace.best_ms"] - min(untraced_walls) * 1e3
    op = statistics.median(w for _, w in traced)
    mll = m["legalize.extract_s"] + m["legalize.enumerate_s"] + m["legalize.realize_s"]
    print(f"ledger: {m['ledger.coverage']:.1%} of the traced operation's wall time is attributed")
    print(f"ledger: legalize.residual_s = {m['legalize.residual_s']:.4f} s "
          f"({m['legalize.residual_s'] / m['legalize.wall_s']:.1%} of legalize.wall_s)")
    print(f"ledger: proc.other_s = {m['proc.other_s']:.4f} s ({m['proc.other_s'] / op:.1%} of the operation)")
    print(f"ledger: MLL phases = {mll / m['legalize.wall_s']:.1%} of legalize.wall_s, "
          f"{mll / op:.1%} of the operation")
    return m


# ---------------------------------------------------------------- serve


def strip_timing(line):
    """A response without its `wall_us` field: byte-stable across runs."""
    return re.sub(r',"wall_us":\d+', "", line)


def read_listen_addr(p, timeout):
    """Reads the server's stderr until `serving on HOST:PORT`."""
    deadline = time.monotonic() + timeout
    buf = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([p.stderr], [], [], 0.05)
        if not ready:
            if p.poll() is not None:
                break
            continue
        chunk = os.read(p.stderr.fileno(), 4096)
        if not chunk:
            break
        buf += chunk
        m = re.search(rb"serving on (\S+):(\d+)\n", buf)
        if m:
            return m.group(1).decode(), int(m.group(2))
    raise BenchError(f"mrl serve did not start listening:\n{buf.decode(errors='replace')}")


def wire_session(mrl, aux, lines, work):
    """One `mrl serve` session over loopback: spawn, one connection, every
    request in a closed loop, then half-close and reap the server.

    Returns a dict with the set-up time, per-request client latencies,
    server `wall_us`, stripped responses, failed requests and the server's
    peak RSS.
    """
    res = {"lat": [], "wall_us": [], "responses": [], "failed": 0, "rss": None}
    t0 = time.perf_counter()
    with open(work / "serve.out", "wb") as out:
        p = subprocess.Popen([mrl, "serve", "--aux", aux, "--listen", "127.0.0.1:0"],
                             stdout=out, stderr=subprocess.PIPE, cwd=ROOT)
    try:
        addr = read_listen_addr(p, LISTEN_TIMEOUT_S)
        res["setup"] = time.perf_counter() - t0
        with socket.create_connection(addr, timeout=RESPONSE_TIMEOUT_S) as sock:
            try:
                with sock.makefile("rb") as reader:
                    for i, line in enumerate(lines):
                        t = time.perf_counter()
                        sock.sendall(line)
                        resp = reader.readline()
                        lat = time.perf_counter() - t
                        if not resp.endswith(b"\n"):
                            raise OSError(f"request {i}: no response")
                        text = resp.decode().rstrip("\n")
                        j = json.loads(text)
                        if "error" in j or not j.get("applied") or j.get("id") != i:
                            res["failed"] += 1
                            log(f"request {i}: {text}")
                        res["lat"].append(lat)
                        res["wall_us"].append(j.get("wall_us", 0))
                        res["responses"].append(strip_timing(text))
            finally:
                # The reader is closed; half-close so the server reads EOF.
                sock.shutdown(socket.SHUT_WR)
    except (OSError, ValueError) as e:
        log(f"session failed: {e}")
    finally:
        if "setup" not in res:
            p.kill()
        code, res["rss"] = wait_exit(p, EXIT_TIMEOUT_S)
        p.stderr.close()
    # Requests never answered count as failed, and a server that did not
    # exit cleanly after EOF fails at least one.
    res["failed"] += len(lines) - len(res["lat"])
    if code != 0:
        log(f"mrl serve exited with {code} (None: it hung and was killed)")
        res["failed"] = max(res["failed"], 1)
    return res


def session_ms(session):
    """Mean client latency of one session's closed loop, in ms: the serve
    operation whose fastest instance gives `best_ms`."""
    return sum(session["lat"]) / len(session["lat"]) * 1e3


def run_serve(mrl, probe, workload, bench, args, work):
    generate(mrl, bench, args, work / "inputs")
    aux = work / "inputs" / f"{bench}.aux"
    stream = work / "stream.ndjson"
    run_json([probe, "edits", "--aux", aux, "--seed", str(args.seed), "--requests",
              str(SESSION_REQUESTS), "--edits", str(EDITS_PER_REQUEST), "--out", stream])
    lines = [ln + b"\n" for ln in stream.read_bytes().splitlines() if ln.strip()]

    sessions = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(sessions) < MIN_SESSIONS:
        sessions.append(wire_session(mrl, aux, lines, work))
    attempted = len(sessions) * len(lines)
    failed = sum(s["failed"] for s in sessions)
    reference = sessions[0]["responses"]
    identical = all(s["responses"] == reference for s in sessions)
    if not identical:
        log("responses differ between sessions of one stream")

    # Untimed checks: a --check replay and the in-process session must give
    # the same responses as the wire, and the same as earlier runs.
    try:
        r = subprocess.run([mrl, "serve", "--aux", aux, "--input", stream, "--check"],
                           cwd=ROOT, capture_output=True, text=True, timeout=LISTEN_TIMEOUT_S)
        replay = [strip_timing(x) for x in r.stdout.splitlines() if x.startswith("{")]
        replay_ok = r.returncode == 0 and replay == reference
        if not replay_ok:
            log(f"mrl serve --check replay disagrees (exit {r.returncode}):\n{r.stderr}")
    except subprocess.TimeoutExpired:
        replay_ok = False
        log("mrl serve --check replay timed out")
    inproc, _ = run_json([probe, "session", "--aux", aux, "--stream", stream])
    inproc_ok = inproc["responses"] == reference
    if not inproc_ok:
        log("in-process session responses differ from the wire")
    same = remember(f"{workload}:{args.seed}:{args.scale}",
                    hashlib.sha256("\n".join(reference).encode()).hexdigest())
    if not same:
        log("responses differ from an earlier run of this seed")
    correct = identical and replay_ok and inproc_ok and same and failed == 0

    sessions = [s for s in sessions if s["lat"]]
    if not sessions:
        raise BenchError("no session answered a request")
    lat = [x for s in sessions for x in s["lat"]]
    wall_us = [x for s in sessions for x in s["wall_us"]]
    setups = [s["setup"] for s in sessions]
    if args.trace:
        return correct, attempted, failed, serve_layers(sessions, reference, inproc, lat, wall_us, setups)
    return correct, attempted, failed, {
        "setup_s": (min(setups), "s"),
        "best_ms": (min(session_ms(s) for s in sessions), "ms"),
        "throughput": (1e3 / min(session_ms(s) for s in sessions), "1/s"),
        "peak_rss_mb": (statistics.median(s["rss"] for s in sessions if s["rss"]), "MB"),
        "avg_disp_sites": (inproc["avg_disp_sites"], "sites"),
    }


def serve_layers(sessions, reference, inproc, lat, wall_us, setups):
    resp = [json.loads(x) for x in reference]
    applied = [r for r in resp if r["applied"]]
    apply_ms = [w / 1e3 for w in wall_us]
    wire_ms = [x * 1e3 - a for x, a in zip(lat, apply_ms)]

    def mean(key):
        return statistics.fmean(r[key] for r in resp)

    m = dict(LAYER_ZERO)
    m["parsers.read_s"] = inproc["read_s"]
    m["db.state_build_s"] = inproc["state_build_s"]
    legalize_layers([inproc["legalize"]], m)
    m["metrics.check_s"] = inproc["check_s"]
    m["metrics.quality_s"] = inproc["quality_s"]
    m["metrics.hpwl_delta_pct"] = inproc["hpwl_delta_pct"]
    m["client.p50_ms"] = statistics.median(lat) * 1e3
    m["client.p90_ms"] = percentile(lat, 0.9) * 1e3
    m["eco.apply_ms_p50"] = statistics.median(apply_ms)
    m["eco.apply_ms_p90"] = percentile(apply_ms, 0.9)
    for key in ("touched", "moved", "mll_calls", "escalations"):
        m[f"eco.{key}"] = mean(key)
    m["eco.window_sites"] = statistics.fmean(r["window"][2] * r["window"][3] for r in resp)
    m["eco.applied_frac"] = len(applied) / len(resp)
    m["eco.induced_disp_sites"] = statistics.fmean(r["induced_disp"] for r in applied) if applied else 0.0
    m["eco.stream.parse_us"] = statistics.median(inproc["parse_us"])
    m["eco.stream.serialize_us"] = statistics.median(inproc["serialize_us"])
    m["cli.wire_ms_p50"] = statistics.median(wire_ms)
    m["cli.wire_ms_p90"] = percentile(wire_ms, 0.9)
    # Set-up ledger: spawn-to-listening minus the in-process set-up layers.
    in_setup = inproc["read_s"] + inproc["state_build_s"] + inproc["legalize"]["call_s"] + inproc["session_new_s"]
    m["proc.other_s"] = min(setups) - in_setup
    p50 = m["client.p50_ms"]
    m["ledger.coverage"] = (m["eco.apply_ms_p50"] + m["cli.wire_ms_p50"]) / p50
    # Serving has no traced variant: the server is the same program and the
    # client does the same work in every session, so the difference between
    # the two halves of the sessions is this figure's noise floor.
    m["trace.best_ms"] = min(session_ms(s) for s in sessions[0::2])
    m["trace.overhead_ms"] = m["trace.best_ms"] - min(session_ms(s) for s in sessions[1::2] or sessions)
    print(f"ledger: eco.apply_ms_p50 + cli.wire_ms_p50 = {m['ledger.coverage']:.1%} of client p50 "
          f"({p50:.3f} ms); cli.wire_ms_p50 is {m['cli.wire_ms_p50'] / p50:.1%} of it")
    print(f"ledger: legalize.residual_s = {m['legalize.residual_s']:.4f} s of base legalization")
    print(f"ledger: proc.other_s = {m['proc.other_s']:.4f} s of {min(setups):.4f} s set-up (fastest)")
    return m


# ---------------------------------------------------------------- entry point


def run_workload(args):
    kind, bench = WORKLOADS[args.workload]
    mrl, probe = build()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run_batch if kind == "batch" else run_serve
    try:
        correct, attempted, failed, metrics = runner(mrl, probe, args.workload, bench, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        units = declared_units("per_layer")
        metrics = {k: (v, units[k]) for k, v in metrics.items()}
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def declared_units(section):
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def smoke():
    """Runs every workload once at --scale 100, traced and untraced, and
    checks the metric names and units against BENCHMARK.json."""
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace, scale=100)
            result = run_workload(args)
            want = declared_units(section)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{workload} --trace {trace}"
            before = len(problems)
            if got != want:
                problems.append(f"{tag}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            for k, v in result["metrics"].items():
                bad = not math.isfinite(v["value"]) or (trace == 0 and v["value"] == 0)
                if bad:
                    problems.append(f"{tag}: {k} = {v['value']}")
            log(f"smoke {tag}: {'ok' if len(problems) == before else 'FAILED'}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1, help="mrl generate --scale (1 = full size)")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at --scale 100 and validate metric names and units")
    args = ap.parse_args()
    try:
        if args.smoke:
            problems = smoke()
            for problem in problems:
                log(problem)
            return 1 if problems else 0
        if args.workload is None:
            ap.error("--workload is required")
        result = run_workload(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
