#!/usr/bin/env python
"""Debug-as-a-service tour: warm daemon, streamed events, batches.

The service keeps the expensive per-design state — bundle, device
tables, the golden model's compiled kernel, the tile cache —
resident in long-lived workers, so every run after the first
on a design skips straight to the actual debugging.  This demo:

1. starts a daemon in-process (one worker, a temp cache dir);
2. runs one spec cold, then the same spec again warm, and prints the
   measured speedup plus the proof that both answers are identical;
3. streams the job's stage/probe/commit events, exactly as
   `python -m repro client events <job>` would;
4. submits a 3-spec batch expanded server-side and waits for all;
5. dumps the daemon's stats: queue depths, worker health, warm hits.

Run:  python examples/service_demo.py
Same flow from the shell:
    python -m repro serve --cache-dir .cache --workers 1 &
    python -m repro client submit --design 9sym --error-seed 1 \
        --preset fast --wait
"""

import json
import tempfile
import time
from pathlib import Path

from repro.api import RunSpec
from repro.service import Client, ReproService, ServiceConfig

#: fields that legitimately differ between two runs of the same spec
VOLATILE = {"wall_seconds", "timings", "effort", "cache", "attempts",
            "n_commit_cache_hits"}


def stable(result: dict) -> dict:
    return {k: v for k, v in result.items() if k not in VOLATILE}


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-svc-") as tmp:
        config = ServiceConfig(
            socket_path=str(Path(tmp) / "svc.sock"),
            cache_dir=str(Path(tmp) / "cache"),
            workers=1,
        )
        service = ReproService(config)
        service.start()
        client = Client(config.socket_path)
        try:
            tour(client)
        finally:
            service.stop()


def tour(client: Client) -> None:
    print("1. ping:", json.dumps(client.ping(), sort_keys=True))

    spec = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="shared", error_seed=1)

    print("\n2. cold run (worker builds bundle, device, golden, "
          "kernel)...")
    t0 = time.perf_counter()
    cold = client.run(spec)
    cold_s = time.perf_counter() - t0
    print(f"   status={cold['result']['status']} "
          f"warm_hit={cold['warm']['hit']} {cold_s:.2f}s")

    print("   same spec again, fresh — the warm registry answers:")
    t0 = time.perf_counter()
    warm = client.run(spec, fresh=True)
    warm_s = time.perf_counter() - t0
    print(f"   status={warm['result']['status']} "
          f"warm_hit={warm['warm']['hit']} {warm_s:.2f}s "
          f"-> {cold_s / max(warm_s, 1e-9):.1f}x")
    assert stable(cold["result"]) == stable(warm["result"])
    print("   warm answer is bit-identical to the cold one "
          "(modulo timings)")

    print("\n3. the job's event stream, replayed:")
    for event in client.events(cold["job"]):
        kind = event.get("event")
        if kind == "stage_start":
            print(f"   stage {event['stage']}...")
        elif kind == "probe":
            print(f"      probe {event['instance']}: "
                  f"{event['candidates_before']} -> "
                  f"{event['candidates_after']} candidates")
        elif kind == "commit":
            print(f"      commit ({event['work_units']} work units)")
        elif kind == "done":
            print(f"   done: {event['status']}")

    print("\n4. a 3-spec batch, expanded server-side:")
    batch = client.submit_batch(spec, error_seeds=[1, 2, 3])
    for job in batch["jobs"]:
        settled = client.wait(job["job"])
        print(f"   error_seed={settled['result']['spec']['error_seed']} "
              f"status={settled['result']['status']} "
              f"warm_hit={(settled.get('warm') or {}).get('hit')} "
              f"deduped={job['deduped']}")

    stats = client.stats()
    queue, worker = stats["queue"], stats["workers"][0]
    print(f"\n5. stats: {queue['done']}/{queue['jobs']} jobs done, "
          f"worker pid={worker['pid']} alive={worker['alive']} "
          f"jobs_done={worker['jobs_done']} deaths={worker['deaths']}")


if __name__ == "__main__":
    main()
