"""``python -m repro serve | submit <kind> | store``: the COMMUTER
service, its client, and its artifact store (docs/service.md)."""

from __future__ import annotations

import sys

from repro.cli.common import (
    CLUSTER_OPTIONS,
    add_options,
    add_params,
    cluster_flags,
    request_params,
)
from repro.kinds import CACHE_OPTIONS, EXECUTION, get_kind, kind_names


def cmd_serve(args) -> int:
    """Boot the COMMUTER service (see docs/service.md): an asyncio
    HTTP/JSON job server sharing one result cache and one
    content-addressed artifact store across jobs."""
    import os

    from repro.service import ArtifactStore, JobManager, ServiceServer

    # The service builds one backend per job from its name, so cluster
    # configuration travels by environment (the same REPRO_CLUSTER_*
    # variables the flags set; see docs/cluster.md).
    for name, value in cluster_flags(args).items():
        if value is not None:
            os.environ[f"REPRO_CLUSTER_{name.upper()}"] = str(value)

    manager = JobManager(
        cache=None if args.no_cache else args.cache,
        store=ArtifactStore(args.store),
        workers=args.jobs,
        backend=args.backend,
        backend_workers=args.workers,
    )
    server = ServiceServer(manager, host=args.host, port=args.port)
    server.start_background()
    print(
        f"repro service listening on http://{args.host}:{server.port} "
        f"(store {args.store}, {args.jobs} concurrent jobs)",
        flush=True,
    )
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop_background()
    return 0


def _print_event(event: dict) -> None:
    kind = event.get("event")
    if kind == "status":
        print(f"  status: {event['status']}", flush=True)
    elif kind == "pair":
        suffix = " (cached)" if event.get("cached") \
            else f" ({event.get('elapsed', 0.0):.2f}s)"
        detail = (
            f"{event['total']} tests" if "total" in event
            else f"{event.get('commutative_paths', 0)}"
                 f"/{event.get('explored_paths', 0)} paths commute"
        )
        print(f"  {event['pair']}: {event['verdict']}, {detail}{suffix}",
              flush=True)
    elif kind == "progress":
        print(f"  {event['line']}", flush=True)
    elif kind == "store":
        print(f"  served from store: {event['artifact']}", flush=True)


def cmd_submit(args) -> int:
    """Submit one job to a running ``repro serve``, stream its NDJSON
    events, and report the final artifact digest."""
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        params = get_kind(args.kind).params + EXECUTION
        job = client.submit(args.kind, request_params(params, args))
        print(f"job {job['id']} ({args.kind}) submitted "
              f"to http://{args.host}:{args.port}", flush=True)
        if args.no_wait:
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0
        for event in client.events(job["id"]):
            _print_event(event)
        final = client.job(job["id"])
    except (ServiceError, OSError) as exc:
        raise SystemExit(f"submit: {exc}") from None
    print(f"{final['computed_pairs']} pairs computed, "
          f"{final['cached_pairs']} cached"
          + (" (served from store)" if final["store_hit"] else ""))
    if final.get("artifact"):
        print(f"artifact {final['artifact']}")
        if args.out is not None:
            import os

            blob = client.artifact_bytes(final["artifact"])
            directory = os.path.dirname(os.path.abspath(args.out))
            os.makedirs(directory, exist_ok=True)
            with open(args.out, "wb") as f:
                f.write(blob)
            print(f"-> {args.out}")
    if final["status"] == "error":
        print(final.get("error") or "job failed", file=sys.stderr)
        return 1
    if final["status"] == "cancelled":
        print("job cancelled")
        return 1
    return 0


def cmd_store(args) -> int:
    """Inspect (``ls``) or garbage-collect (``gc``) the service's
    content-addressed artifact store."""
    from repro.service import ArtifactStore

    store = ArtifactStore(args.store)
    if args.action == "ls":
        records = store.ls()
        print(f"store {args.store}: {len(records)} artifact(s)")
        for r in records:
            missing = "" if r["present"] else "  MISSING"
            print(f"  {r['digest'][:16]}  {r['kind'] or '?':8s} "
                  f"{r['bytes']:>8d}B  seq {r['seq']:>3d}  "
                  f"{r['requests']} request(s){missing}")
        return 0
    removed = store.gc(keep_last=args.keep_last)
    print(f"store {args.store}: removed {len(removed)} "
          f"unreferenced artifact(s)"
          + (f" (kept last {args.keep_last})" if args.keep_last else ""))
    for digest in removed:
        print(f"  {digest}")
    return 0


def register(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="COMMUTER-as-a-service: asyncio HTTP/JSON job server over "
             "the pipeline (jobs, NDJSON event streams, content-"
             "addressed artifacts; see docs/service.md)",
    )
    p.add_argument("--host", default="127.0.0.1", metavar="HOST",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321, metavar="PORT",
                   help="bind port (default 8321; 0 = ephemeral, printed "
                        "on startup)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="how many jobs run concurrently (default 2; each "
                        "job fans pairs out through its own backend)")
    add_params(p, EXECUTION)
    add_options(p, CLUSTER_OPTIONS + CACHE_OPTIONS)
    p.add_argument("--store", default="results/store", metavar="DIR",
                   help="content-addressed artifact store directory "
                        "(default results/store)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job to a running `repro serve`, stream its "
             "per-pair NDJSON events, and print the artifact digest",
    )
    ksub = p.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in map(get_kind, kind_names()):
        k = ksub.add_parser(kind.name, help=kind.help)
        k.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       help="service address (default 127.0.0.1)")
        k.add_argument("--port", type=int, default=8321, metavar="PORT",
                       help="service port (default 8321)")
        # The kind's own parameters, spelled as on the batch command.  No
        # cluster flags: spawn/listen configuration belongs to the server
        # process (`repro serve --backend cluster` or REPRO_CLUSTER_*).
        add_params(k, kind.params + EXECUTION)
        k.add_argument("--no-wait", action="store_true",
                       help="print the job record and exit without "
                            "streaming")
        k.add_argument("--out", default=None, metavar="PATH",
                       help="write the artifact's canonical bytes to PATH "
                            "after completion")
        k.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "store",
        help="inspect (ls) or garbage-collect (gc) the service's "
             "content-addressed artifact store",
    )
    p.add_argument("action", choices=("ls", "gc"))
    p.add_argument("--store", default="results/store", metavar="DIR",
                   help="store directory (default results/store)")
    p.add_argument("--keep-last", type=int, default=0, metavar="N",
                   help="gc: keep the N most recently stored "
                        "unreferenced artifacts (default 0 = drop all)")
    p.set_defaults(fn=cmd_store)
