"""``python -m repro cluster worker``: one member of a ``--backend
cluster`` fleet (docs/cluster.md).  The coordinator side is any sweep
command run with ``--backend cluster --cluster-listen HOST:PORT``."""

from __future__ import annotations


def cmd_cluster_worker(args) -> int:
    """Run one cluster worker against a coordinator (docs/cluster.md)."""
    from repro.cluster.worker import run_worker

    try:
        return run_worker(
            args.connect,
            slots=args.slots,
            heartbeat_interval=args.heartbeat,
            reconnect=args.reconnect,
            name=args.name,
            quiet=args.quiet,
        )
    except ValueError as exc:
        raise SystemExit(f"cluster worker: {exc}") from None


def register(sub) -> None:
    p = sub.add_parser(
        "cluster",
        help="distributed fleet: a coordinator driving TCP workers on N "
             "hosts, with heartbeat failure detection and requeue "
             "(see docs/cluster.md; `--backend cluster` on any command "
             "uses the same machinery)",
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)

    w = csub.add_parser(
        "worker",
        help="connect to a coordinator and execute dispatched pair jobs "
             "until it shuts the fleet down",
    )
    w.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator address")
    w.add_argument("--slots", type=int, default=1, metavar="K",
                   help="max jobs in flight on this worker (default 1)")
    w.add_argument("--heartbeat", type=float, default=0.5, metavar="SECS",
                   help="heartbeat interval (default 0.5)")
    w.add_argument("--reconnect", type=float, default=0.0, metavar="SECS",
                   help="retry cadence when the coordinator is missing "
                        "(default 0 = exit instead)")
    w.add_argument("--name", default=None, metavar="NAME",
                   help="worker name in coordinator logs/stats "
                        "(default host:pid)")
    w.add_argument("--quiet", action="store_true",
                   help="suppress stderr progress lines")
    w.set_defaults(fn=cmd_cluster_worker)
