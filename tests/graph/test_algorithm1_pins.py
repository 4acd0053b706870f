"""Pinned outputs of Algorithm 1 and the G_CPPS exports.

These digests and counts were taken when G_CPPS was a copy held in a
third-party graph library; the architecture-as-graph implementation
must reproduce them exactly.  The exports are read through the
``repro graph`` command so the pins do not depend on what the export
functions take as input.
"""

import hashlib

import pytest

from repro.cli import main
from repro.graph import generate, random_factory
from repro.manufacturing import monitored_flow_names, printer_architecture

#: The benchmarks' seed (``benchmarks/conftest.py::BENCH_SEED``).
BENCH_SEED = 20190325


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _graph_sections(capsys, *argv):
    """``repro graph`` output split into (summary, flows, adjacency-or-DOT)."""
    assert main(["graph", *argv]) == 0
    return capsys.readouterr().out.rstrip("\n").split("\n\n")


def _pair_digest(pairs) -> str:
    return _sha256("\n".join("|".join(fp.names) for fp in pairs))


def _observed(arch) -> set:
    """bench_scalability's rule: signal flows and unintentional emissions."""
    return {
        f.name
        for f in arch.flows.values()
        if f.is_signal or (f.is_energy and not f.intentional)
    }


class TestPrinterExports:
    def test_flow_and_adjacency_listings(self, capsys):
        _summary, flows, adjacency = _graph_sections(capsys)
        assert _sha256(flows) == (
            "224c24adf0a611c59a311a4d6aa51403cd14ffc53bd1c61c93d9d5e3fab0c76c"
        )
        assert _sha256(adjacency) == (
            "6219bfeda11d4cf2e953d6f3bfa415648e074c282c4e9c2305a234f23936de29"
        )

    def test_dot(self, capsys):
        _summary, _flows, dot = _graph_sections(capsys, "--dot")
        assert _sha256(dot) == (
            "3f2e1eaf90a3342546428e5fe27c6d659e0667b0906343062426d8e2acc303a9"
        )


class TestPairs:
    def test_printer_counts_and_order(self):
        res = generate(printer_architecture(), monitored_flow_names())
        assert (len(res.candidate_pairs), len(res.trainable_pairs)) == (270, 25)
        assert res.removed_edges == []
        assert _pair_digest(res.candidate_pairs) == (
            "e11972aad607c55b2f33602a02367c59314257fcf1550990f58a7462b2575fe6"
        )
        assert _pair_digest(res.trainable_pairs) == (
            "2cb4815c80ba8dbd30f8477e7f54bf6325eb8084638f915d2ec44d6fa6b120f3"
        )

    def test_printer_cross_domain_order(self):
        res = generate(printer_architecture(), monitored_flow_names())
        assert ["|".join(fp.names) for fp in res.cross_domain_pairs()] == [
            "F1|F14", "F1|F15", "F1|F16", "F1|F17", "F1|F18",
        ]

    @pytest.mark.parametrize(
        "n, counts, candidate_digest, trainable_digest",
        [
            (2, (92, 20),
             "411dfcf7c222872bb48e6e5347fe443b8a0304cad3a5636c45d31acbebe88539",
             "16d707f49009882ce945873e410465955b55105d65c4a954eaf1332f8dd97039"),
            (4, (359, 120),
             "d8a5825287b9f991f0d9083d97776daf642bc59beb39603540a701e0643c20cd",
             "c79420fe831fce5d879802c2585617e1cd5b41fb8f34c0765cb17d409bb97922"),
            (8, (1466, 605),
             "94f2e9a40688148e2e1fbeffee2693c83ee747841cb7c48a2f78e3c51c75bafc",
             "d6c6080dc26a7aeec02b7867934101f5b65aba7e06d2ef079c9ed29ea6785761"),
            (16, (4708, 1965),
             "484b204865e9524cb984797267ef1966449e70a074d5c668ed3a7078f769fb99",
             "dbf0a46131cdade067943c6b993134f6209cb781eadcb75de674438425f4abfb"),
        ],
    )
    def test_random_factory(self, n, counts, candidate_digest, trainable_digest):
        arch = random_factory(n, seed=BENCH_SEED)
        res = generate(arch, _observed(arch))
        assert (len(res.candidate_pairs), len(res.trainable_pairs)) == counts
        assert res.removed_edges == []
        assert _pair_digest(res.candidate_pairs) == candidate_digest
        assert _pair_digest(res.trainable_pairs) == trainable_digest
