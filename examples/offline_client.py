"""Build once, save, reopen in a second process — store persistence.

Server side: load the gallery database, run view selection for the
workload, and persist the whole store as a single snapshot file
(``TripleStore.save``). Client side — a genuinely separate Python
process — reopens the snapshot with the disk-backed SQLite backend
(``TripleStore.open``: the file is served in place, nothing is loaded
into Python memory) and answers every query with no server connection.
Back on the server, incremental view maintenance keeps the extents
current as triples arrive and retire, ready for the next snapshot.

Run with: python examples/offline_client.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro import (
    SearchBudget,
    Triple,
    TripleStore,
    URI,
    ViewSelector,
    evaluate,
    parse_query,
)
from repro.selection import MaterializedViewSet

NS = "http://gallery.example/"


def uri(name: str) -> URI:
    return URI(NS + name)


def workload():
    return [
        parse_query(
            "exhibits(P, M) :- t(P, hasPainted, W), t(W, exhibitedIn, M)",
            namespace=NS,
        ),
        parse_query(
            "locals(P, C) :- t(P, hasPainted, W), t(P, livedIn, C)",
            namespace=NS,
        ),
    ]


def server_database() -> TripleStore:
    store = TripleStore()
    facts = [
        ("rembrandt", "hasPainted", "nightWatch"),
        ("rembrandt", "hasPainted", "stormGalilee"),
        ("vermeer", "hasPainted", "milkmaid"),
        ("nightWatch", "exhibitedIn", "rijksmuseum"),
        ("milkmaid", "exhibitedIn", "rijksmuseum"),
        ("stormGalilee", "exhibitedIn", "gardnerMuseum"),
        ("rembrandt", "livedIn", "amsterdam"),
        ("vermeer", "livedIn", "delft"),
    ]
    for s, p, o in facts:
        store.add(Triple(uri(s), uri(p), uri(o)))
    return store


def client(snapshot: str) -> None:
    """The second process: reopen the snapshot, answer, no server."""
    store = TripleStore.open(snapshot, backend="sqlite")
    print(f"client (pid {os.getpid()}, no server connection): "
          f"attached to {len(store)} triples on disk")
    for query in workload():
        answers = evaluate(query, store)
        print(f"  {query.name}:")
        for row in sorted(answers, key=str):
            print("    " + ", ".join(t.value.removeprefix(NS) for t in row))
    store.close()


def main() -> None:
    # --- server: build once, select views, save ------------------------
    store = server_database()
    selector = ViewSelector(store, strategy="dfs", budget=SearchBudget(time_limit=3.0))
    recommendation = selector.recommend(workload())
    snapshot = Path(tempfile.mkstemp(suffix=".db")[1])
    store.save(snapshot)
    size = snapshot.stat().st_size
    print(f"server: recommended {len(recommendation.views)} views; "
          f"saved {len(store)} triples to {snapshot.name} ({size} bytes)")

    # --- client: a *second process* reopens the snapshot ---------------
    subprocess.run(
        [sys.executable, __file__, "--client", str(snapshot)], check=True
    )

    # --- server: the database moves on; views follow incrementally -----
    maintained = MaterializedViewSet(recommendation.state, store)
    print("\nserver: new acquisition arrives ...")
    maintained.insert(Triple(uri("vermeer"), uri("hasPainted"), uri("pearlEarring")))
    maintained.insert(Triple(uri("pearlEarring"), uri("exhibitedIn"), uri("mauritshuis")))
    print("server: a loan ends ...")
    maintained.remove(Triple(uri("stormGalilee"), uri("exhibitedIn"), uri("gardnerMuseum")))

    print("server: refreshed answers after incremental maintenance:")
    for row in sorted(maintained.answer("exhibits"), key=str):
        print("    " + ", ".join(t.value.removeprefix(NS) for t in row))

    # The moved-on database snapshots again for the next sync.
    store.save(snapshot)
    reopened = TripleStore.open(snapshot, backend="memory")
    print(f"server: re-snapshot holds {len(reopened)} triples "
          f"(was {len(server_database())})")
    snapshot.unlink()


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--client":
        client(sys.argv[2])
    else:
        main()
