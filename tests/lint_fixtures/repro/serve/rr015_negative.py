"""RR015 negative fixture: only picklable recipes cross the boundary."""

from multiprocessing import Process

from repro.serve.fleet.worker import FleetWorkerSpec, fleet_worker_main
from repro.serve.handlers import EstimationService


def _probe(payload):
    return payload


def build_and_use_service_locally(config, request):
    # Constructing and using a service in-process is the whole point;
    # only crossing a spawn boundary is the hazard.
    service = EstimationService(config)
    return service.dispatch(request)


def spawn_from_a_spec(config, conn):
    # The fleet pattern: a frozen picklable spec crosses, the worker
    # rebuilds its own EstimationService from it.
    spec = FleetWorkerSpec(worker_id=0, config=config)
    worker = Process(target=fleet_worker_main, args=(spec, conn))
    worker.start()
    return worker


def submit_plain_payloads(pool, descriptor, config):
    # Descriptors and configs are exactly what should cross.
    return pool.submit(_probe, descriptor), pool.submit(_probe, config)


def rebinding_clears_the_taint(pool, config):
    candidate = EstimationService(config)
    candidate.shutdown()
    candidate = {"config": config}
    return pool.submit(_probe, candidate)
