"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import analysis
import run


def span(sid, name, start, end, parent=-1, rank=-1):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "rank": rank, "job": 0, "bytes": 0}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertAlmostEqual(analysis.self_times([span(0, "a", 1.0, 3.5)])[0], 2.5)

    def test_parent_minus_disjoint_children(self):
        spans = [span(0, "root", 0.0, 10.0), span(1, "a", 1.0, 3.0, 0),
                 span(2, "b", 5.0, 9.0, 0)]
        st = analysis.self_times(spans)
        self.assertAlmostEqual(st[0], 4.0)
        self.assertAlmostEqual(st[1], 2.0)
        self.assertAlmostEqual(st[2], 4.0)

    def test_overlapping_rank_children_count_once(self):
        # Four ranks inside one collective call overlap in time; the
        # parent's covered part is their union, not their sum.
        spans = [span(0, "probe", 0.0, 10.0)] + [
            span(1 + r, "kcount.run", 1.0 + r, 6.0 + r, 0, r) for r in range(4)]
        self.assertAlmostEqual(analysis.self_times(spans)[0], 10.0 - 8.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, "p", 2.0, 4.0), span(1, "c", 1.0, 3.0, 0)]
        self.assertAlmostEqual(analysis.self_times(spans)[0], 1.0)

    def test_grandchildren_do_not_reduce_grandparent_twice(self):
        spans = [span(0, "root", 0.0, 10.0), span(1, "mid", 0.0, 6.0, 0),
                 span(2, "leaf", 1.0, 5.0, 1)]
        st = analysis.self_times(spans)
        self.assertAlmostEqual(st[0], 4.0)
        self.assertAlmostEqual(st[1], 2.0)
        self.assertAlmostEqual(sum(st.values()), 10.0)

    def test_stage_spans_laid_end_to_end_under_pipeline(self):
        spans = [span(0, "assemble", 0.0, 10.0),
                 span(1, "pipeline.execute", 2.0, 9.0, 0)]
        stages = [{"name": "io", "wall": 1.0}, {"name": "kmer_analysis", "wall": 4.5}]
        tree = analysis.with_stage_spans(spans, stages)
        self.assertEqual([s["name"] for s in tree[2:]], ["stage.io", "stage.kmer_analysis"])
        self.assertEqual((tree[3]["start"], tree[3]["end"]), (3.0, 7.5))
        st = analysis.self_times(tree)
        self.assertAlmostEqual(st[1], 7.0 - 5.5)


class RankSkew(unittest.TestCase):
    def test_balanced_ranks_have_no_skew(self):
        self.assertEqual(analysis.rank_skew([2.0, 2.0, 2.0, 2.0]), 0.0)

    def test_skew_is_slowest_minus_mean(self):
        self.assertAlmostEqual(analysis.rank_skew([1.0, 1.0, 1.0, 5.0]), 3.0)

    def test_no_ranks(self):
        self.assertEqual(analysis.rank_skew([]), 0.0)

    def test_hot_owner_ratio(self):
        self.assertAlmostEqual(analysis.max_over_mean([10, 10, 10, 10]), 1.0)
        self.assertAlmostEqual(analysis.max_over_mean([1, 1, 1, 97]), 3.88)
        self.assertEqual(analysis.max_over_mean([0, 0]), 0.0)


CLI_OUTPUT = """auto min-count: 2 (histogram valley)
assembling 5 libraries on 4 ranks, k=31, min_count=2...
  io: wall 0.0456846s, modeled 0.0360637s
  kmer_analysis: wall 2.1508s, modeled 0.192364s
  contig_generation: wall 0.147751s, modeled 0.0430324s
  rest_scaffolding: wall 0.213911s, modeled 0.0212062s
  merAligner: wall 1.38121s, modeled 0.323203s
  gap_closing: wall 0.588433s, modeled 1.1511e-05s
contigs:   sequences: 1319  total: 260420 bp  max: 3655  N50: 857  L50: 78  N90: 54
wrote 1134 scaffolds to w.fa
"""


class Parsing(unittest.TestCase):
    def test_cli_stage_report(self):
        stages = analysis.parse_stage_report(CLI_OUTPUT)
        self.assertEqual(list(stages), ["io", "kmer_analysis", "contig_generation",
                                        "rest_scaffolding", "merAligner",
                                        "gap_closing"])
        self.assertEqual(stages["kmer_analysis"], (2.1508, 0.192364))
        self.assertEqual(stages["gap_closing"][1], 1.1511e-05)

    def test_served_stage_lines_sum_rounds(self):
        lines = ["JOB id=3 state=done scaffolds=12 bases=40000 cache_hit=1 out=x.fa",
                 "STAGE io 0.01 0.02", "STAGE merAligner 0.5 0.1",
                 "STAGE rest_scaffolding 0.25 0.05", "STAGE merAligner 0.25 0.1",
                 "STAGE bogus", "OK pong"]
        stages = analysis.parse_stage_lines(lines)
        self.assertEqual(stages["merAligner"], (0.75, 0.2))
        self.assertEqual(set(stages), {"io", "merAligner", "rest_scaffolding"})
        self.assertNotIn("kmer_analysis", stages)
        self.assertEqual(analysis.response_field(lines[0], "cache_hit"), "1")
        self.assertEqual(analysis.response_field(lines[0], "missing", "?"), "?")

    def test_protocol_framing_round_trip(self):
        framed = analysis.frame_line("PING")
        self.assertTrue(framed.endswith(" PING\n"))
        self.assertEqual(analysis.unframe_line(framed[:-1]), "PING")
        self.assertIsNone(analysis.unframe_line(framed[:-2] + "H"))

    def test_crc32c_check_value(self):
        self.assertEqual(analysis.crc32c(b"123456789"), 0xE3069283)


class TruthScoring(unittest.TestCase):
    GENOME = "ACGTTGCATGTCGCATGATGCATGAGAGCTAGCTAGGATCCGATCGTAGCTAGCAAGT"

    @staticmethod
    def truth(s):
        return analysis.kmer_set([s], 5)

    @staticmethod
    def rc(s):
        return s.translate(str.maketrans("ACGT", "TGCA"))[::-1]

    def test_full_assembly_scores_one(self):
        self.assertEqual(analysis.genome_fraction(self.truth(self.GENOME), [self.GENOME], 5), 1.0)

    def test_reverse_complement_scaffold_counts(self):
        self.assertEqual(
            analysis.genome_fraction(self.truth(self.GENOME), [self.rc(self.GENOME)], 5), 1.0)

    def test_half_assembly(self):
        g = self.GENOME
        truth = analysis.canonical_kmers(g, 5)
        half = g[:len(g) // 2]
        expect = len(analysis.canonical_kmers(half, 5) & truth) / len(truth)
        self.assertAlmostEqual(analysis.genome_fraction(truth, [half], 5), expect)
        self.assertLess(expect, 0.6)

    def test_gap_ns_break_kmers(self):
        g = self.GENOME
        gapped = g[:20] + "NNNNN" + g[25:]
        with_gap = analysis.genome_fraction(self.truth(g), [gapped], 5)
        missing = {g[i:i + 5] for i in range(16, 25)}
        truth = analysis.canonical_kmers(g, 5)
        self.assertLess(with_gap, 1.0)
        self.assertGreaterEqual(with_gap, 1.0 - len(missing) / len(truth))

    def test_hand_built_counts(self):
        # Truth AAACCC has 4-mers AAAC, AACC, ACCC (canonical: AAAC, AACC,
        # ACCC vs their complements GTTT, GGTT, GGGT). The scaffold holds
        # only AACCC: 2 of 3.
        self.assertAlmostEqual(analysis.genome_fraction(analysis.kmer_set(["AAACCC"], 4), ["AACCC"], 4), 2 / 3)
        self.assertEqual(analysis.genome_fraction(analysis.kmer_set(["AAACCC"], 4), [], 4), 0.0)

    def test_ng50(self):
        self.assertEqual(analysis.ng50([5, 3, 2], 10), 5)
        self.assertEqual(analysis.ng50([4, 3, 3], 10), 3)
        self.assertEqual(analysis.ng50([1, 1], 10), 0)

    def test_read_fasta(self):
        with tempfile.NamedTemporaryFile("w", suffix=".fa", delete=False) as f:
            f.write(">a\nACGT\nAC\n>b\nGG\n")
        try:
            self.assertEqual(analysis.read_fasta(f.name), ["ACGTAC", "GG"])
        finally:
            os.unlink(f.name)


class LayerTable(unittest.TestCase):
    def test_layer_metrics_attribute_the_root(self):
        comm = {k: 0 for k in ("work_units", "local_accesses", "onnode_msgs",
                               "offnode_msgs", "onnode_bytes", "offnode_bytes",
                               "recv_ops", "read_cache_hits", "read_cache_misses",
                               "transport_retries", "io_read_bytes",
                               "io_write_bytes", "collectives")}
        kc = dict(comm, onnode_msgs=30, offnode_msgs=10, onnode_bytes=3_000_000,
                  offnode_bytes=1_000_000, local_accesses=60)
        aln = dict(comm, read_cache_hits=3, read_cache_misses=1)
        trace = {
            "peak_table_entries": 7, "bloom_bytes": 2_000_000,
            "spans": [span(0, "assemble", 0.0, 10.0),
                      span(1, "cli.probe", 0.0, 3.0, 0),
                      span(2, "kcount.run", 0.5, 2.5, 1, 0),
                      span(3, "kcount.run", 0.5, 2.9, 1, 1),
                      span(4, "pipeline.execute", 3.0, 9.0, 0),
                      span(5, "io.write_fasta", 9.0, 9.5, 0),
                      span(6, "server.journal_append", 10.0, 10.25)],
            "stages": [{"name": "kmer_analysis", "wall": 4.0, "comm": kc},
                       {"name": "merAligner", "wall": 1.0, "comm": aln}],
            "probe_ranks": [dict(comm, recv_ops=10), dict(comm, recv_ops=30)],
        }
        m = analysis.layer_metrics(trace)
        self.assertAlmostEqual(m["cli.probe_s"], 3.0)
        self.assertAlmostEqual(m["io.fasta_write_s"], 0.5)
        # Root 10 s = probe 3 + stages 5 + write 0.5 + unattributed 1.5.
        self.assertAlmostEqual(m["pipeline.unattributed_s"], 1.5)
        self.assertAlmostEqual(m["trace.span_share"], 0.85)
        self.assertAlmostEqual(m["kcount.rank_skew_s"], 0.2)
        self.assertAlmostEqual(m["kcount.recv_ops_max_over_mean"], 1.5)
        self.assertEqual(m["kcount.msgs"], 40)
        self.assertAlmostEqual(m["kcount.mb_moved"], 4.0)
        self.assertAlmostEqual(m["pgas.offnode_frac"], 0.1)
        self.assertAlmostEqual(m["align.cache_hit_ratio"], 0.75)
        self.assertAlmostEqual(m["kcount.bloom_mb"], 2.0)
        self.assertEqual(m["ckpt.cache_lookup_s"], 0.0)
        self.assertAlmostEqual(m["server.journal_append_ms"], 250.0)
        self.assertAlmostEqual(m["harness_extra_s"], 0.25)
        self.assertTrue(set(analysis.LAYER_UNITS) - set(m) <=
                        {"pgas.fabric_excess_s", "server.overhead_s",
                         "trace.overhead_s"})


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics and units run.py prints."""

    def test_metric_tables_match(self):
        path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         analysis.LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertTrue(all(m["bound"] <= 0.25 for m in bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
