"""The server the serve workloads load: one single-process ``ServerApp``.

It builds the estimator tables the way a fleet supervisor does
(``startup`` sweeps → ``publish_tables``), attaches them zero-copy
(``attach_tables``) and installs them into the service that answers
requests, so lookups run on the fleet's shared tables.  Then it listens
on an ephemeral localhost port and takes commands, one per stdin line:

``trace``    install the layer wrappers and arm an obs collector;
``untrace``  disarm and keep the spans recorded so far;
``stop``     drain, release the table segment, write the spans to the
             ``--spans`` file and exit.

Every state change is acknowledged with one JSON line on stdout.
``--trace`` arms the collector from the first line of setup, so a
traced run also gets the set-up ledger.

    python serve_target.py --workload serve-mix --spans out.json

The service's seed (maps, tables, simulations) is the suite's fixed
``layers.MAP_SEED``; the client's ``--seed`` drives only the requests.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from typing import Any

from repro import obs
from repro.graph.forest_cache import default_forest_cache
from repro.serve.app import ServerApp
from repro.serve.fleet import store as fleet_store
from repro.serve.handlers import EstimationService, ServiceConfig

import layers

#: The topologies whose tables each workload pre-builds.  serve-exact
#: queries ``internet`` with exact simulations only; its graph is built
#: lazily by the first request, which the client sends as warm-up.
TOPOLOGIES = {"serve-mix": ("internet", "r100"), "serve-exact": ("r100",)}


def service_config(workload: str, smoke: bool) -> ServiceConfig:
    return ServiceConfig(
        topologies=TOPOLOGIES[workload],
        scale=0.2 if smoke else 1.0,
        seed=layers.MAP_SEED,
        num_sources=4 if smoke else 20,
        num_receiver_sets=4 if smoke else 20,
        executor_threads=2,
    )


def emit(event: str, **fields: Any) -> None:
    print(json.dumps(dict(fields, event=event)), flush=True)


async def serve(args: argparse.Namespace) -> None:
    tracer = layers.Tracing()
    if args.trace:
        tracer.arm()
    config = service_config(args.workload, args.smoke)
    builder = EstimationService(config)
    await builder.startup()
    handle = fleet_store.publish_tables(builder.tables, generation=1)
    await builder.shutdown()
    del builder
    try:
        service = EstimationService(config)
        service.install_tables(
            fleet_store.attach_tables(handle.descriptor), generation=1
        )
        app = ServerApp(service)
        await app.start(host="127.0.0.1", port=0)
        emit("ready", port=app.port, segment=handle.descriptor.name)
        setup_spans = 0
        loop = asyncio.get_running_loop()
        commands = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
        )
        while True:
            command = (await commands.readline()).decode().strip()
            if command == "trace":
                tracer.arm()
                emit("tracing", forest_cache=default_forest_cache().stats())
            elif command == "untrace":
                tracer.disarm()
                setup_spans = setup_spans or len(tracer.spans)
                emit("untraced", forest_cache=default_forest_cache().stats())
            elif command in ("stop", ""):
                break
            else:
                emit("error", message=f"unknown command {command!r}")
        await app.stop(drain_seconds=2.0)
    finally:
        handle.release()
    if obs.active_collector() is not None:
        tracer.disarm()
    if args.spans:
        # The service's own series plus the process-wide ones, as the
        # fleet supervisor folds them for GET /metrics.
        metrics = obs.MetricsRegistry.from_dict(service.metrics.to_dict())
        metrics.merge(obs.default_registry().to_dict())
        with open(args.spans, "w", encoding="utf-8") as out:
            json.dump(
                {"setup": tracer.spans[:setup_spans],
                 "timed": tracer.spans[setup_spans:],
                 "metrics": metrics.to_dict()},
                out,
            )
    emit(
        "stopped",
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        forest_cache=default_forest_cache().stats(),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TOPOLOGIES), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="arm tracing from the start of set-up")
    parser.add_argument("--spans", default=None,
                        help="file the recorded spans are written to")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
