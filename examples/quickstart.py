"""Quickstart: write transaction logs into ESDB and query them with SQL.

Run:  python examples/quickstart.py
"""

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.obsv import cat_nodes


def main() -> None:
    # A small cluster: 4 worker nodes, 32 shards, 1 replica per shard.
    db = ESDB(EsdbConfig(topology=ClusterTopology(num_nodes=4, num_shards=32)))
    print(cat_nodes(db).render())

    # Transaction logs mix structured columns with full text and the
    # free-form "attributes" column of customized sub-attributes.
    logs = [
        {
            "transaction_id": 1001,
            "tenant_id": "bookstore-42",
            "created_time": 1.0,
            "status": 1,
            "group": 7,
            "amount": 59.0,
            "auction_title": "vintage hardcover science fiction novel",
            "attributes": "activity:summer_sale;condition:used",
        },
        {
            "transaction_id": 1002,
            "tenant_id": "bookstore-42",
            "created_time": 2.0,
            "status": 2,
            "group": 7,
            "amount": 12.5,
            "auction_title": "paperback cookbook for beginners",
            "attributes": "activity:summer_sale;condition:new",
        },
        {
            "transaction_id": 1003,
            "tenant_id": "gadget-shop",
            "created_time": 3.0,
            "status": 1,
            "group": 9,
            "amount": 499.0,
            "auction_title": "wireless noise cancelling headphones",
            "attributes": "warranty:2y;color:black",
        },
    ]
    for log in logs:
        shard = db.write(log)
        print(f"wrote txn {log['transaction_id']} of {log['tenant_id']!r} -> shard {shard}")

    # Writes become searchable at refresh (near-real-time search).
    db.refresh()

    print("\n-- structured query (routed to the tenant's single shard) --")
    result = db.execute_sql(
        "SELECT transaction_id, status, amount FROM transaction_logs "
        "WHERE tenant_id = 'bookstore-42' AND status = 1"
    )
    for row in result.rows:
        print(row)
    print(f"(hits={result.total_hits}, subqueries={result.subqueries})")

    print("\n-- full-text search over auction titles --")
    result = db.execute_sql(
        "SELECT transaction_id, auction_title FROM transaction_logs "
        "WHERE tenant_id = 'bookstore-42' AND MATCH(auction_title, 'science fiction')"
    )
    for row in result.rows:
        print(row)

    print("\n-- sub-attribute filter on the flexible 'attributes' column --")
    result = db.execute_sql(
        "SELECT transaction_id FROM transaction_logs "
        "WHERE tenant_id = 'bookstore-42' AND ATTR(condition) = 'new'"
    )
    for row in result.rows:
        print(row)

    print("\n-- EXPLAIN: rewrite, ES-DSL, physical plan and fan-out --")
    print(
        db.explain(
            "SELECT transaction_id FROM transaction_logs "
            "WHERE tenant_id = 'bookstore-42' AND created_time BETWEEN 1 AND 3 "
            "AND status = 1 LIMIT 10"
        )
    )

    # An update names the record by tenant and id (plus, optionally, its
    # created_time); the rule list re-derives the shard that holds it.
    print("\n-- updates route back to the shard that holds the record --")
    db.update(1001, {"status": 3}, tenant_id="bookstore-42")
    db.refresh()
    result = db.execute_sql(
        "SELECT transaction_id, status FROM transaction_logs "
        "WHERE tenant_id = 'bookstore-42' ORDER BY created_time"
    )
    for row in result.rows:
        print(row)


if __name__ == "__main__":
    main()
