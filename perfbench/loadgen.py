"""Closed-loop load generator for the service_mix workload.

Reads one request list per connection (JSON on stdin), opens one
keep-alive HTTP connection per list, and replays each list in whole
rounds until ``--seconds`` have passed: every connection sends its next
request only after the previous reply arrived.  The connections start
each round together and decide together whether to run another, so
neither runs on alone while the other has stopped.  Prints one JSON object:
``{"records": [[conn, kind, latency_s, server_ms, status, stats], ...]}``
where ``server_ms`` is the envelope's ``elapsed_ms`` and ``stats`` holds
an edit's feature computations and memo hits.

Run as a separate process so the client's interpreter does not compete
with the server's for one lock.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time


def _stats(kind: str, envelope: dict):
    if kind != "edit" or not envelope.get("ok"):
        return None
    stats = envelope["result"]["stats"]
    return {"feature_computations": stats["feature_computations"],
            "memo_hits": stats["memo_hits"]}


def drive(conn: int, requests, port: int, rounds, out: list) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        while rounds.next():
            for request in requests:
                body = request.get("body")
                payload = None if body is None else json.dumps(body).encode()
                headers = {"Content-Type": "application/json"} if payload else {}
                started = time.perf_counter()
                try:
                    connection.request(request["method"], request["path"],
                                       body=payload, headers=headers)
                    response = connection.getresponse()
                    blob = response.read()
                    latency = time.perf_counter() - started
                    envelope = json.loads(blob)
                    status = response.status
                except (OSError, http.client.HTTPException, ValueError) as error:
                    latency = time.perf_counter() - started
                    sys.stderr.write(f"connection {conn}: {error!r}\n")
                    connection.close()
                    out.append([conn, request["kind"], latency, None, 0, None])
                    continue
                out.append([conn, request["kind"], latency,
                            envelope.get("elapsed_ms"), status,
                            _stats(request["kind"], envelope)])
    finally:
        rounds.leave()
        connection.close()


class Rounds:
    """Round boundaries shared by every connection: a round starts once
    all connections have finished the one before, and one decision for
    all of them ends the run at the first boundary past the deadline."""

    def __init__(self, parties: int, deadline: float):
        self.deadline = deadline
        self.first = True
        self.go = True
        self.barrier = threading.Barrier(parties, action=self._decide)

    def _decide(self) -> None:
        self.go = self.first or time.perf_counter() < self.deadline
        self.first = False

    def next(self) -> bool:
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            return False
        return self.go

    def leave(self) -> None:
        # A connection that stops early (an exception) must not leave the
        # others waiting at the barrier.
        if self.go:
            self.barrier.abort()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    plans = json.load(sys.stdin)
    rounds = Rounds(len(plans), time.perf_counter() + args.seconds)
    outputs = [[] for _ in plans]
    threads = [
        threading.Thread(target=drive, args=(conn, plan, args.port, rounds,
                                             outputs[conn]))
        for conn, plan in enumerate(plans)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records = [record for output in outputs for record in output]
    json.dump({"records": records}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
