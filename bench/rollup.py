"""Roll a ``cProfile`` stats table up into this repo's layers and spans.

Input is ``pstats.Stats(...).stats``:
``{(file, line, name): (prim_calls, calls, tottime, cumtime, callers)}``
with ``callers = {caller_key: (calls, prim_calls, tottime, cumtime)}``
holding the part of the callee's time spent under that caller.

*Layers* are the packages under ``src/repro/`` plus ``cli``, ``numpy``
and ``other``.  A Python function belongs to the layer its file is in.
The profile is taken with ``builtins=False``, so the time of a built-in
or C method (``blake2b``, ``struct.pack``, ``heappush``, a NumPy ufunc)
is already inside the Python function that called it: the cost lands
where it was asked for.  Code with no file — dataclass-generated
``__init__``/``__eq__`` — is charged, edge by edge, to the layer of its
caller.  Every second of
``tottime`` is charged exactly once, so the layers' ``self_s`` sum to
the profiled total.

*Spans* are named groups of functions at a layer boundary.  A span's
``cum_s`` is the cumulative time entering the group from outside it
(members calling each other are not counted twice); ``calls`` counts
every call of a member.
"""

from __future__ import annotations

LAYERS = ("sim", "net", "stack", "core", "bgp", "bfd", "iputil", "routing",
          "liveness", "topology", "stacks", "harness", "scenario", "workload",
          "resilience", "traffic", "wire", "cli", "numpy", "other")

#: span name -> (file suffix under src/repro/ or None for any repro file,
#: function names).  The frozen list: bench/README.md "Frozen surface".
SPANS = {
    "sim.run": ("sim/engine.py", ("run",)),
    "sim.schedule": ("sim/engine.py", ("schedule_at", "schedule_after")),
    "sim.trace_emit": ("sim/trace.py", ("emit",)),
    "net.transmit": ("net/link.py", ("transmit",)),
    "net.deliver": ("net/interface.py", ("deliver",)),
    "stack.wire_size": (None, ("wire_size",)),
    "bgp.encode_message": ("bgp/encoding.py", ("encode_message",)),
    "bgp.decode_message": ("bgp/encoding.py", ("decode_message",)),
    "routing.lookup": ("routing/table.py", ("lookup",)),
    "routing.ecmp_hash": ("routing/ecmp.py", ("ecmp_hash",)),
    "workload.synthesize": ("workload/synth.py", ("synthesize",)),
    "workload.start": ("workload/engine.py", ("start",)),
    "workload.mark_epoch": ("workload/engine.py", ("mark_epoch",)),
    "workload.finish": ("workload/engine.py", ("finish",)),
    "workload.max_min_rates": ("workload/fluid.py", ("max_min_rates",)),
    "resilience.check": ("resilience/invariants.py", ("check",)),
    "harness.build_and_converge": ("harness/experiments.py",
                                   ("build_and_converge",)),
    "harness.run_digest": ("harness/digest.py", ("run_digest",)),
    "harness.cache_get": ("harness/cache.py", ("get",)),
    "harness.cache_put": ("harness/cache.py", ("put",)),
    "scenario.compile": ("scenario/compiler.py", ("compile_scenario",)),
    "scenario.execute": ("scenario/compiler.py", ("execute",)),
}

_REPRO = "/repro/"
TOP_FUNCTIONS = 5


def _repro_path(filename: str) -> str | None:
    """Path below the ``repro`` package, or None for foreign code."""
    cut = filename.rfind(_REPRO)
    return None if cut < 0 else filename[cut + len(_REPRO):]


def _short_path(filename: str) -> str:
    """Host-independent label: below ``repro/``, else the last three parts."""
    return _repro_path(filename) or "/".join(filename.split("/")[-3:])


#: the "file" of generated code such as dataclass ``__init__``/``__eq__``
_GENERATED = "<string>"


def _file_layer(key) -> str:
    """Layer of a function by where its file is; generated code reads
    "other" here and is resolved per caller edge in :func:`roll_up`."""
    filename = key[0]
    path = _repro_path(filename)
    if path is None:
        return "numpy" if "/numpy/" in filename else "other"
    head = path.split("/", 1)[0]
    if head == "cli.py":
        return "cli"
    return head if head in LAYERS else "other"


def roll_up(stats: dict) -> dict:
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total_s = 0.0
    for key, (prim, _calls, tottime, _cum, callers) in stats.items():
        total_s += tottime
        layer = _file_layer(key)
        if key[0] == _GENERATED:
            # charge each caller's share to the caller's layer; time with
            # no recorded caller stays in "other"
            for caller, (_n, edge_prim, edge_tt, _c) in callers.items():
                caller_layer = _file_layer(caller)
                self_s[caller_layer] += edge_tt
                calls[caller_layer] += edge_prim
                tottime -= edge_tt
                prim -= edge_prim
        self_s[layer] += tottime
        calls[layer] += prim

    spans = {}
    for name, (suffix, functions) in SPANS.items():
        members = {
            key for key in stats
            if key[2] in functions and (path := _repro_path(key[0]))
            and (suffix is None or path == suffix)}
        cum_s, n = 0.0, 0
        for key in members:
            n += stats[key][1]
            cum_s += sum(edge[3] for caller, edge in stats[key][4].items()
                         if caller not in members)
        spans[name] = {"cum_s": cum_s, "calls": n}

    top = sorted(((tt, key) for key, (_p, _n, tt, _c, _e) in stats.items()),
                 reverse=True)[:TOP_FUNCTIONS]
    return {
        "total_s": total_s,
        "layers": {layer: {"self_s": self_s[layer], "calls": calls[layer]}
                   for layer in LAYERS},
        "spans": spans,
        "top": [{"function": f"{_short_path(key[0])}:{key[2]}", "self_s": tt}
                for tt, key in top],
    }
