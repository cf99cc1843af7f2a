"""Turn a gprof profile of nowlb-perfbench into per-layer host shares.

Every function is charged to a layer, named after the src/ module whose
namespace it lives in (nowlb::sim::, nowlb::data::, ...; plain nowlb:: is
util). A function outside nowlb:: (an std:: container or std::function
instantiation) is charged to the first module its template arguments
name; failing that, its self time is split over its callers in
proportion to their call counts, up the call graph until a nowlb
function is reached. What reaches no layer is `other`.

gprof samples every 10 ms and only sees the program's own text: time in
shared libraries (libc, libstdc++) and in the kernel is not sampled.
`profile.coverage` is the share of the profiled wall time the samples
cover; the host shares are shares of the sampled time.
"""

import re
import subprocess

MODULES = ("sim", "msg", "data", "lb", "load", "loop", "apps", "obs",
           "check", "exp", "util")

# calls.<name>: call counts of these functions, per profiled run.
CALLS = {
    "data.marker": re.compile(r"^nowlb::data::DistArray<.*>::marker\("),
    "data.set_marker": re.compile(r"^nowlb::data::DistArray<.*>::set_marker\("),
    "data.slice": re.compile(r"^nowlb::data::DistArray<.*>::slice\("),
    "data.owns": re.compile(r"^nowlb::data::DistArray<.*>::owns\("),
    "sim.engine_step": re.compile(r"^nowlb::sim::Engine::step\(\)"),
}

_MODULE_RE = re.compile(r"nowlb::(\w+)::")
_CYCLE_RE = re.compile(r"\s*<cycle \d+>$")
_SAMPLE_RE = re.compile(r"Each sample counts as ([\d.]+) seconds")
# Flat profile row: %time, cumulative s, self s, then optionally calls,
# self/call and total/call, then the name.
_FLAT_RE = re.compile(
    r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
# Call-graph caller line: optional self and children times, the call
# count (a/b or a), the name and its index.
_PARENT_RE = re.compile(
    r"^\s+(?:[\d.]+\s+[\d.]+\s+)?(\d+)(?:/\d+)?\s+(.+?)\s+\[\d+\]$")
_PRIMARY_RE = re.compile(r"^\[\d+\]")


def _clean(name):
    return _CYCLE_RE.sub("", name.strip())


def module_of(name):
    """The layer a function name belongs to, or None outside nowlb::."""
    if name.startswith("nowlb::"):
        m = _MODULE_RE.match(name)
        return m.group(1) if m and m.group(1) in MODULES else "util"
    if name.startswith("std::") or name.startswith("__gnu_cxx::"):
        m = _MODULE_RE.search(name)
        if m and m.group(1) in MODULES:
            return m.group(1)
    return None


def parse_flat(text):
    """(seconds per sample, {name: self seconds}, {name: calls})."""
    period = 0.01
    self_s, calls = {}, {}
    in_table = False
    for line in text.splitlines():
        m = _SAMPLE_RE.search(line)
        if m:
            period = float(m.group(1))
            continue
        if line.lstrip().startswith("time "):
            in_table = True
            continue
        if not in_table or not line.strip():
            continue
        m = _FLAT_RE.match(line)
        if not m:
            continue
        name = _clean(m.group(3))
        self_s[name] = self_s.get(name, 0.0) + float(m.group(1))
        if m.group(2):
            calls[name] = calls.get(name, 0) + int(m.group(2))
    return period, self_s, calls


def parse_callers(text):
    """{callee name: {caller name: call count}} from the call graph."""
    callers = {}
    for entry in re.split(r"^-{20,}$", text, flags=re.M):
        lines = entry.splitlines()
        primary = next((i for i, l in enumerate(lines)
                        if _PRIMARY_RE.match(l)), None)
        if primary is None:
            continue
        head = re.sub(r"^\[\d+\]\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+"
                      r"(?:\d+(?:\+\d+)?\s+)?", "", lines[primary])
        callee = _clean(re.sub(r"\s+\[\d+\]$", "", head))
        for line in lines[:primary]:
            m = _PARENT_RE.match(line)
            if m:
                caller = _clean(m.group(2))
                if caller != callee:
                    edges = callers.setdefault(callee, {})
                    edges[caller] = edges.get(caller, 0) + int(m.group(1))
    return callers


def attribute(self_s, callers):
    """{layer: seconds}, with the unattributable remainder under 'other'."""
    shares = {}
    memo = {}

    def split(name, depth):
        """{layer: fraction} for one second of `name`'s self time."""
        mod = module_of(name)
        if mod is not None:
            return {mod: 1.0}
        if name in memo:
            return memo[name]
        edges = callers.get(name, {})
        total = sum(edges.values())
        if depth > 12 or total == 0:
            return {"other": 1.0}
        memo[name] = {"other": 1.0}  # breaks caller cycles
        out = {}
        for caller, n in edges.items():
            for layer, frac in split(caller, depth + 1).items():
                out[layer] = out.get(layer, 0.0) + frac * n / total
        memo[name] = out
        return out

    for name, secs in self_s.items():
        for layer, frac in split(name, 0).items():
            shares[layer] = shares.get(layer, 0.0) + secs * frac
    return shares


def layer_metrics(binary, gmon, runs, wall_s):
    """Per-layer metrics of one profile: host_share.*, calls.*, profile.*."""
    def gprof(flag):
        return subprocess.run(["gprof", "-b", flag, binary, gmon],
                              check=True, capture_output=True,
                              text=True).stdout

    period, self_s, calls = parse_flat(gprof("-p"))
    seconds = attribute(self_s, parse_callers(gprof("-q")))
    sampled = sum(self_s.values())
    out = {}
    for layer in MODULES + ("other",):
        share = seconds.get(layer, 0.0) / sampled if sampled > 0 else 0.0
        out["host_share." + layer] = (share, "share")
    for key, pattern in CALLS.items():
        n = sum(c for name, c in calls.items() if pattern.match(name))
        out["calls." + key] = (n / max(runs, 1), "count")
    out["profile.samples"] = (round(sampled / period), "count")
    out["profile.coverage"] = (sampled / wall_s if wall_s > 0 else 0.0,
                               "share")
    return out
