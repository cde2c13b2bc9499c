"""Pure helpers of the benchmark: report parsing, span arithmetic, truth
scoring and the per-layer metric table. No process is started here, so
test_analysis.py covers all of it on hand-built inputs."""

import collections
import re
import statistics

# ---------------------------------------------------------------- parsing

_STAGE_RE = re.compile(r"^\s+(\S+): wall ([0-9.eE+-]+)s, modeled ([0-9.eE+-]+)s$")


def parse_stage_report(text):
    """Stage name -> (wall_s, modeled_s) from `hipmer assemble` stdout.

    The CLI already sums repeated stage names (scaffolding rounds), one
    line per name; repeats are summed here too so either form parses."""
    stages = {}
    for line in text.splitlines():
        m = _STAGE_RE.match(line)
        if m:
            wall, modeled = stages.get(m.group(1), (0.0, 0.0))
            stages[m.group(1)] = (wall + float(m.group(2)),
                                  modeled + float(m.group(3)))
    return stages


def parse_stage_lines(lines):
    """Stage name -> (wall_s, modeled_s) from a served RESULT response:
    `STAGE <name> <wall> <modeled>` lines, one per executed stage, so a
    multi-round job repeats names and they are summed."""
    stages = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "STAGE":
            wall, modeled = stages.get(parts[1], (0.0, 0.0))
            stages[parts[1]] = (wall + float(parts[2]), modeled + float(parts[3]))
    return stages


def response_field(line, key, default=""):
    """Value of `key=value` in a protocol response line."""
    for token in line.split():
        if token.startswith(key + "="):
            return token[len(key) + 1:]
    return default


# ----------------------------------------------------- wire framing (CRC-32C)

def _crc32c_table():
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
        table.append(c)
    return table


_CRC_TABLE = _crc32c_table()


def crc32c(data):
    crc = 0xFFFFFFFF
    for b in data:
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


def frame_line(text):
    """One control-protocol line: `<8-hex-crc32c> <text>\\n`."""
    return "%08x %s\n" % (crc32c(text.encode()), text)


def unframe_line(line):
    """Text of a framed line, or None when the CRC does not match."""
    if len(line) < 9 or line[8] != " ":
        return None
    text = line[9:]
    try:
        claimed = int(line[:8], 16)
    except ValueError:
        return None
    return text if claimed == crc32c(text.encode()) else None


# ------------------------------------------------------------------ spans

def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> self time: its duration minus the part of its interval
    that its children cover. Children may overlap each other (one span per
    rank inside a collective call); overlap is counted once, and the part
    of a child outside its parent is ignored."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = []
        for c in children.get(s["id"], []):
            start, end = max(c["start"], s["start"]), min(c["end"], s["end"])
            if end > start:
                clipped.append((start, end))
        out[s["id"]] = (s["end"] - s["start"]) - _covered(clipped)
    return out


def with_stage_spans(spans, stages, parent_name="pipeline.execute"):
    """`spans` plus one synthetic child of the pipeline span per stage
    report, laid end to end from the pipeline span's start. The pipeline
    reports stage walls, not stage start times, so only the stage
    durations are measured; their sum is exact and that is what self time
    and attribution use."""
    out = list(spans)
    parent = next((s for s in spans if s["name"] == parent_name), None)
    if parent is None:
        return out
    t = parent["start"]
    next_id = max(s["id"] for s in spans) + 1
    for st in stages:
        out.append({"id": next_id, "name": "stage." + st["name"], "start": t,
                    "end": t + st["wall"], "parent": parent["id"],
                    "rank": -1, "job": parent.get("job", 0), "bytes": 0})
        t += st["wall"]
        next_id += 1
    return out


def rank_skew(durations):
    """Load imbalance of one collective call: slowest rank minus the mean
    rank. This is the time the average rank waits for the slowest."""
    if not durations:
        return 0.0
    return max(durations) - statistics.fmean(durations)


def max_over_mean(values):
    """Hot-owner ratio: the largest per-rank count over the mean (1.0 when
    balanced, 0.0 when there are no counts)."""
    if not values or sum(values) == 0:
        return 0.0
    return max(values) / statistics.fmean(values)


# ------------------------------------------------------------ truth scoring

_RC = str.maketrans("ACGTacgt", "TGCAtgca")
_ACGT = re.compile(r"[ACGT]+")


def canonical_kmers(seq, k):
    """Set of canonical k-mers (lexicographic min of k-mer and its reverse
    complement) over the ACGT runs of `seq`; k-mers spanning an N or any
    other symbol are skipped."""
    out = set()
    for run in _ACGT.findall(seq.upper()):
        n = len(run)
        rc = run.translate(_RC)[::-1]
        for i in range(n - k + 1):
            fwd = run[i:i + k]
            rev = rc[n - k - i:n - i]
            out.add(fwd if fwd <= rev else rev)
    return out


def kmer_set(seqs, k):
    """Union of the canonical k-mers of several sequences."""
    out = set()
    for s in seqs:
        out |= canonical_kmers(s, k)
    return out


def genome_fraction(truth_kmers, scaffold_seqs, k=31):
    """Share of the truth genome's distinct canonical k-mers (a kmer_set of
    the genome) present in the scaffolds."""
    if not truth_kmers:
        return 0.0
    return len(truth_kmers & kmer_set(scaffold_seqs, k)) / len(truth_kmers)


def ng50(lengths, genome_length):
    """Length of the scaffold at which the longest-first running sum first
    reaches half the genome length; 0 when the assembly never does."""
    running = 0
    for length in sorted(lengths, reverse=True):
        running += length
        if 2 * running >= genome_length:
            return length
    return 0


def read_fasta(path):
    """Sequences of a FASTA file, in order."""
    records = []
    with open(path) as f:
        for line in f:
            if line.startswith(">"):
                records.append([])
            elif records:
                records[-1].append(line.strip())
    return ["".join(parts) for parts in records]


# -------------------------------------------------------- per-layer table

# Every per-layer metric, with its unit. A layer a workload does not
# exercise reads 0 there (no probe on a served job, no cache one-shot).
LAYER_UNITS = {
    "cli.probe_s": "s",
    "io.read_s": "s",
    "io.read_mb": "MB",
    "io.fasta_write_s": "s",
    "kcount.wall_s": "s",
    "kcount.msgs": "count",
    "kcount.mb_moved": "MB",
    "kcount.rank_skew_s": "s",
    "kcount.recv_ops_max_over_mean": "ratio",
    "kcount.peak_table_entries": "count",
    "kcount.bloom_mb": "MB",
    "dbg.wall_s": "s",
    "dbg.msgs": "count",
    "dbg.offnode_frac": "ratio",
    "align.wall_s": "s",
    "align.msgs": "count",
    "align.cache_hit_ratio": "ratio",
    "scaffold.wall_s": "s",
    "scaffold.gap_closing_s": "s",
    "pgas.msgs": "count",
    "pgas.mb_moved": "MB",
    "pgas.offnode_frac": "ratio",
    "pgas.collectives": "count",
    "pgas.retries": "count",
    "pgas.frame_us_per_mb": "us/MB",
    "pgas.fabric_excess_s": "s",
    "pipeline.unattributed_s": "s",
    "ckpt.cache_lookup_s": "s",
    "ckpt.cache_store_s": "s",
    "server.journal_append_ms": "ms",
    "server.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.span_share": "ratio",
}


def _msgs(comm):
    return comm["onnode_msgs"] + comm["offnode_msgs"]


def _mb(comm):
    return (comm["onnode_bytes"] + comm["offnode_bytes"]) / 1e6


def _offnode_frac(comm):
    total = comm["local_accesses"] + _msgs(comm)
    return comm["offnode_msgs"] / total if total else 0.0


def _sum_comm(stages, name=None):
    out = collections.Counter()
    for st in stages:
        if name is None or st["name"] == name:
            out.update(st["comm"])
    return out


def _stage_wall(stages, name):
    return sum(st["wall"] for st in stages if st["name"] == name)


def _span_median(spans, name):
    durs = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return statistics.median(durs) if durs else 0.0


def layer_metrics(trace):
    """Per-layer metrics of one traced run (the harness's spans JSON)."""
    spans, stages = trace["spans"], trace["stages"]
    tree = with_stage_spans([s for s in spans if s["parent"] >= 0 or
                             s["name"] == "assemble"], stages)
    selfs = self_times(tree)
    root = next(s for s in tree if s["name"] == "assemble")
    root_wall = root["end"] - root["start"]
    unattributed = sum(selfs[s["id"]] for s in tree
                       if s["name"] in ("assemble", "pipeline.execute"))
    all_comm = _sum_comm(stages)
    kc = _sum_comm(stages, "kmer_analysis")
    dbg = _sum_comm(stages, "contig_generation")
    aln = _sum_comm(stages, "merAligner")
    io = _sum_comm(stages, "io")
    lookups = aln["read_cache_hits"] + aln["read_cache_misses"]
    frame = [s for s in spans if s["name"] == "pgas.frame_decode"]
    frame_mb = sum(s["bytes"] for s in frame) / 1e6
    frame_s = sum(s["end"] - s["start"] for s in frame)
    probe_runs = [s["end"] - s["start"] for s in spans if s["name"] == "kcount.run"]
    return {
        "cli.probe_s": _span_median(spans, "cli.probe"),
        "io.read_s": _stage_wall(stages, "io"),
        "io.read_mb": io["io_read_bytes"] / 1e6,
        "io.fasta_write_s": _span_median(spans, "io.write_fasta"),
        "kcount.wall_s": _stage_wall(stages, "kmer_analysis"),
        "kcount.msgs": _msgs(kc),
        "kcount.mb_moved": _mb(kc),
        "kcount.rank_skew_s": rank_skew(probe_runs),
        "kcount.recv_ops_max_over_mean":
            max_over_mean([r["recv_ops"] for r in trace["probe_ranks"]]),
        "kcount.peak_table_entries": trace["peak_table_entries"],
        "kcount.bloom_mb": trace["bloom_bytes"] / 1e6,
        "dbg.wall_s": _stage_wall(stages, "contig_generation"),
        "dbg.msgs": _msgs(dbg),
        "dbg.offnode_frac": _offnode_frac(dbg),
        "align.wall_s": _stage_wall(stages, "merAligner"),
        "align.msgs": _msgs(aln),
        "align.cache_hit_ratio":
            aln["read_cache_hits"] / lookups if lookups else 0.0,
        "scaffold.wall_s": _stage_wall(stages, "rest_scaffolding"),
        "scaffold.gap_closing_s": _stage_wall(stages, "gap_closing"),
        "pgas.msgs": _msgs(all_comm),
        "pgas.mb_moved": _mb(all_comm),
        "pgas.offnode_frac": _offnode_frac(all_comm),
        "pgas.collectives": all_comm["collectives"],
        "pgas.retries": all_comm["transport_retries"],
        "pgas.frame_us_per_mb": frame_s * 1e6 / frame_mb if frame_mb else 0.0,
        "pipeline.unattributed_s": unattributed,
        "ckpt.cache_lookup_s": _span_median(spans, "ckpt.lookup_ufx"),
        "ckpt.cache_store_s": _span_median(spans, "ckpt.store_ufx"),
        "server.journal_append_ms":
            _span_median(spans, "server.journal_append") * 1e3,
        "trace.span_share": 1.0 - unattributed / root_wall if root_wall else 0.0,
        "root_wall_s": root_wall,
        # The harness's own measurements after the assembly (envelope
        # framing, cache, journal): process time the CLI does not spend.
        "harness_extra_s": sum(s["end"] - s["start"] for s in spans
                               if s["parent"] < 0 and s["name"] != "assemble"),
        "stage_wall_s": sum(st["wall"] for st in stages),
    }
