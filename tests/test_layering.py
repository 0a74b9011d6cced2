"""Layering, dead-name and charge-seam guards: AST walks over ``src/repro``.

* Nothing below the top layer imports it: only ``experiments/`` itself,
  ``cli.py`` and the root ``__init__`` (which re-exports every layer) may
  import ``repro.experiments``.
* Every name a package exports through ``__all__`` is referenced somewhere
  other than the module that defines it and the ``__init__`` that re-exports
  it -- in ``src``, ``tests``, ``benchmarks``, ``docs`` or the README -- so an
  export nothing uses fails here instead of accumulating.
* The same for methods: every public method or property of a ``repro.hw``
  class is named by an attribute access (or an identifier-only string, the
  way ``benchmarks/spans.py`` lists what it wraps) in ``src``, ``tests`` or
  ``benchmarks``.
* ``repro.hw`` charges through one seam: ``Event`` is built only by
  ``Machine._emit`` and the two run primitives (``_charge_kernel_run``,
  ``memory_run``), and a stream is reserved only by the scalar and the run
  primitive.  ``repro.cache`` sits on top of that seam: it names neither
  ``Event`` nor a device's memory pool.
* One read path: ``Event`` views are built only by the log
  (``hw/events.py``) and the profile (``core/profiler.py``), and none of the
  eleven filtered read variants that used to sit on ``EventLog`` and
  ``Profile`` comes back.
* One model contract: every ``iteration_batches`` takes only ``self``, the
  event-stream body and the cache-fronted ``_sample`` live once in
  ``DGNNModel``, TGAT has one plan type (``TGATPlan``) and one planned
  forward, and no ``hw`` file names the tracer.
* One iteration contract: models issue an iteration's work, and only
  ``models/base.py`` ends one -- no other model file synchronises or records
  a completion event, and the schedules outside ``models/`` that drive a
  model end through ``finish_iteration``.  What a model can run is declared:
  no ``getattr``/``hasattr``/``callable`` in ``src`` probes for a protocol,
  and a class declaring ``supports_overlap = True`` defines
  ``prepare_iteration``.  The serving surface is declared the same way: no
  ``getattr``/``hasattr`` with a literal name and no ``callable`` anywhere in
  ``src``, and a class whose ``cache_kinds`` holds ``"embedding"`` defines
  ``compute_embeddings``.
* One merge rule, one reader: a ``Timeline`` holds only its name and its two
  columns, and none of the running merged totals, the union memo,
  ``Timeline.merged_busy_ms`` or ``Topology.busy_ms`` comes back in
  ``repro.hw``.
* The event log is the one record of what ran: only the profiler reads an
  event-log cursor (``Machine.event_cursor``) -- the serving loop and the
  tracer keep no index windows into the log beside it.
* Fixed knobs stay constants: none of the 49 parameters and fields that had
  one value in use comes back, each constant keeps the default it replaced,
  and a scheduler policy's accepted overrides are declared once, on its class.
* Every price in one place: only ``hw/spec.py`` defines a price, no
  ``host_work`` duration spells one, and each of its 13 host-work prices is
  read as ``spec.NAME`` somewhere in ``src``.
  The serving sweeps' axes are module constants too: each ``run`` takes
  ``(scale, seed, backend)``.
* One backend seam: across ``tensor/`` and ``nn/`` one function reads
  ``machine.shape_mode`` and launches an operator's kernel, none of the eight
  tensor/nn options nothing set comes back, and every public operator and
  ``nn`` class has a caller in ``src``.
"""

import ast
import importlib
import inspect
import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.join(REPO_ROOT, "src", "repro")


def _files(root, suffixes):
    for directory, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(suffixes):
                yield os.path.join(directory, name)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _module_name(path):
    parts = os.path.relpath(path, os.path.dirname(PACKAGE_ROOT))[: -len(".py")].split(os.sep)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path):
    """Absolute dotted names of everything ``path`` imports."""
    package = _module_name(path).split(".")
    if not path.endswith("__init__.py"):
        package = package[:-1]
    for node in ast.walk(ast.parse(_read(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_only_the_cli_imports_the_experiments_layer():
    offenders = []
    for path in _files(PACKAGE_ROOT, ".py"):
        relative = os.path.relpath(path, PACKAGE_ROOT)
        if relative in ("cli.py", "__init__.py") or relative.startswith("experiments" + os.sep):
            continue
        for module in _imported_modules(path):
            if module == "repro.experiments" or module.startswith("repro.experiments."):
                offenders.append(f"{relative} imports {module}")
    assert not offenders, offenders


def _exports(init_path):
    """``(name, defining file)`` for every ``__all__`` entry of a package."""
    tree = ast.parse(_read(init_path))
    directory = os.path.dirname(init_path)
    names = []
    origin = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names = [element.value for element in node.value.elts]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                # ``from . import mod`` defines ``mod`` in mod itself.
                module = node.module.split(".")[0] if node.module else alias.name
                candidates = (
                    os.path.join(directory, module + ".py"),
                    os.path.join(directory, module, "__init__.py"),
                )
                origin[alias.asname or alias.name] = next(
                    (c for c in candidates if os.path.exists(c)), init_path
                )
    return [(name, origin.get(name, init_path)) for name in names]


def test_every_package_export_is_referenced_outside_its_definition():
    corpus = {
        path: _read(path)
        for root in ("src", "tests", "benchmarks", "docs")
        for path in _files(os.path.join(REPO_ROOT, root), (".py", ".md"))
    }
    readme = os.path.join(REPO_ROOT, "README.md")
    corpus[readme] = _read(readme)
    dead = []
    for init_path in _files(PACKAGE_ROOT, "__init__.py"):
        for name, defined_in in _exports(init_path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(text)
                for path, text in corpus.items()
                if path not in (init_path, defined_in)
            ):
                dead.append(f"{os.path.relpath(init_path, REPO_ROOT)}: {name}")
    assert not dead, f"exported but referenced nowhere else: {dead}"


def _functions(tree):
    """``(class name or "", name, node)`` for every module- and class-level function."""
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else (node,):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name if item is not node else "", item.name, item


def _package_functions(package):
    for path in _files(os.path.join(PACKAGE_ROOT, package), ".py"):
        for owner, name, function in _functions(ast.parse(_read(path))):
            yield path, owner, name, function


def test_every_public_hw_method_is_referenced_somewhere():
    named = set()
    for root in ("src", "tests", "benchmarks"):
        for path in _files(os.path.join(REPO_ROOT, root), ".py"):
            for node in ast.walk(ast.parse(_read(path))):
                if isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    named.add(node.value)
    dead = [
        f"{os.path.relpath(path, REPO_ROOT)}: {owner}.{name}"
        for path, owner, name, _ in _package_functions("hw")
        if owner and not name.startswith("_") and name not in named
    ]
    assert not dead, f"public hw methods nothing references: {dead}"


def _sites(matches, package):
    """``file: function`` of every ``package`` function with a node ``matches`` accepts."""
    sites = set()
    for path, owner, name, function in _package_functions(package):
        annotations = {
            id(inner)
            for node in ast.walk(function)
            for field in ("annotation", "returns")
            if getattr(node, field, None) is not None
            for inner in ast.walk(getattr(node, field))
        }
        if any(matches(node) for node in ast.walk(function) if id(node) not in annotations):
            sites.add(f"{os.path.basename(path)}: {owner + '.' if owner else ''}{name}")
    return sites


def _names_event(node):
    # ``Event`` by name, not only ``Event(...)``: the run primitives map it.
    return isinstance(node, ast.Name) and node.id == "Event"


def _appends_a_row(node):
    # ``Machine._log`` is the event log's row list (``EventLog.rows``).
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("append", "extend", "insert")
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr in ("_log", "rows")
    )


def test_hw_charges_through_one_scalar_and_one_run_primitive():
    row_sites = {
        "machine.py: Machine._emit",
        "machine.py: Machine._charge_kernel_run",
        "machine.py: Machine.memory_run",
    }
    assert _sites(_appends_a_row, "hw") == row_sites
    # Each of them runs the constructor's checks, through the one helper.
    checks = _sites(lambda node: isinstance(node, ast.Name) and node.id == "check_event", "hw")
    assert checks == row_sites | {"events.py: Event.__new__"}
    # No hw function builds an ``Event`` by name: reads wrap stored rows.
    assert _sites(_names_event, "hw") == set()
    reserves = _sites(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("reserve", "reserve_run"),
        "hw",
    )
    assert reserves == {
        "machine.py: Machine._charge",
        "machine.py: Machine._charge_kernel_run",
        # A stream's own delegation to its timeline.
        "stream.py: Stream.reserve",
        "stream.py: Stream.reserve_run",
    }


def test_event_views_are_built_only_by_the_log_and_the_profile():
    naming = {
        os.path.relpath(path, PACKAGE_ROOT)
        for path in _files(PACKAGE_ROOT, ".py")
        if re.search(r"\bevent_view\b", _read(path))
    }
    assert naming == {os.path.join("hw", "events.py"), os.path.join("core", "profiler.py")}


#: The filtered reads deleted when the charges became commands: iterating,
#: indexing and slicing ``machine.events``, and a profile's ``rows`` plus its
#: one ``events`` view, are the read paths left.
DELETED_READS = {
    "hw/events.py": {"EventLog": ("snapshot", "since", "of_kind", "on_stream")},
    "core/profiler.py": {
        "Profile": (
            "events_of_kind", "events_on", "kernel_events", "transfer_events", "sync_events",
            "warmup_events", "events_on_stream",
        ),
    },
}


def _class_members(tree):
    """``class -> names`` its body defines: methods, properties and assigned attributes."""
    members = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names = members[node.name] = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
    return members


def test_the_deleted_event_reads_stay_deleted():
    assert sum(len(names) for owners in DELETED_READS.values() for names in owners.values()) == 11
    back = []
    for relative, owners in DELETED_READS.items():
        members = _class_members(ast.parse(_read(os.path.join(PACKAGE_ROOT, relative))))
        for owner, names in owners.items():
            assert owner in members, (relative, owner)
            back += [f"{relative}: {owner}.{name}" for name in set(names) & members[owner]]
    assert not back, f"defined again: {sorted(back)}"
    # The profile is a plain dataclass: its rows are a field, not a constructor's rewrite.
    profile = _class_members(ast.parse(_read(os.path.join(PACKAGE_ROOT, "core", "profiler.py"))))
    assert "__init__" not in profile["Profile"] and "rows" in profile["Profile"]


def test_the_cache_reaches_memory_only_through_the_machine():
    touches = _sites(
        lambda node: _names_event(node)
        or (isinstance(node, ast.Attribute) and node.attr == "memory"),
        "cache",
    )
    assert touches == set()
    for path in _files(os.path.join(PACKAGE_ROOT, "cache"), ".py"):
        assert not any(module.endswith(".Event") for module in _imported_modules(path)), path


def test_no_iteration_batches_takes_a_parameter_besides_self():
    offenders = []
    for path, owner, name, function in _package_functions("models"):
        arguments = function.args
        if name == "iteration_batches" and (
            [arg.arg for arg in arguments.posonlyargs + arguments.args] != ["self"]
            or arguments.vararg or arguments.kwonlyargs or arguments.kwarg
        ):
            offenders.append(f"{os.path.basename(path)}: {owner}.{name}")
    assert not offenders, offenders


def test_sampling_and_event_stream_batching_are_defined_once_in_the_base_model():
    samplers = {
        f"{os.path.basename(path)}: {owner}.{name}"
        for path, owner, name, _ in _package_functions("models")
        if name == "_sample"
    }
    assert samplers == {"base.py: DGNNModel._sample"}
    batchers = {
        f"{os.path.basename(path)}: {owner}.{name}"
        for path, owner, name, function in _package_functions("models")
        if name == "iteration_batches"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "iter_batches"
            for node in ast.walk(function)
        )
    }
    assert batchers == {"base.py: DGNNModel.iteration_batches"}


def test_tgat_has_one_plan_type_and_one_planned_forward():
    plans = {
        f"{os.path.relpath(path, PACKAGE_ROOT)}: {node.name}"
        for path in _files(PACKAGE_ROOT, ".py")
        for node in ast.walk(ast.parse(_read(path)))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Plan")
    }
    assert plans == {os.path.join("models", "tgat.py") + ": TGATPlan"}
    tgat = {name for _, owner, name, _ in _package_functions("models") if owner == "TGAT"}
    assert "_forward" in tgat
    assert not tgat & {"_prepare_cached", "_is_cached_plan", "_cached_forward"}


#: The joins and the completion marker an iteration can end on.
ITERATION_ENDS = ("synchronize", "stream_synchronize", "device_synchronize", "record_event")


def _ends_an_iteration(node):
    return isinstance(node, ast.Attribute) and node.attr in ITERATION_ENDS


def _names_finish_iteration(node):
    return isinstance(node, ast.Attribute) and node.attr == "finish_iteration"


def test_only_the_base_model_ends_an_iteration():
    for path in _files(os.path.join(PACKAGE_ROOT, "models"), ".py"):
        if os.path.basename(path) != "base.py":
            tree = ast.parse(_read(path))
            assert not any(_ends_an_iteration(node) for node in ast.walk(tree)), path
    assert _sites(_ends_an_iteration, "models") == {
        "base.py: DGNNModel.finish_iteration",
        "base.py: DGNNModel.compute_iteration",
        "base.py: DGNNModel.dispatch_iteration",
    }
    outside = _sites(_names_finish_iteration, "optim") | _sites(_names_finish_iteration, "cache")
    assert outside == {
        "pipelining.py: PipelinedEvolveGCN.run_window",
        "backfill.py: backfill_embeddings",
    }


#: What a model can run is declared on its class, never probed for.
PROTOCOL_NAMES = {
    "supports_overlap",
    "supports_async_dispatch",
    "prepare_iteration",
    "compute_iteration",
    "dispatch_iteration",
}


def _probed_names(node):
    """What a ``getattr``/``hasattr``/``callable`` call names, as strings or attributes."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return set()
    if node.func.id not in ("getattr", "hasattr", "callable"):
        return set()
    names = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Attribute):
            names.add(inner.attr)
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            names.add(inner.value)
    return names


def test_no_source_file_probes_for_a_protocol():
    probes = [
        f"{os.path.relpath(path, PACKAGE_ROOT)}:{node.lineno}"
        for path in _files(PACKAGE_ROOT, ".py")
        for node in ast.walk(ast.parse(_read(path)))
        if _probed_names(node) & PROTOCOL_NAMES
    ]
    assert not probes, probes


def _true_flags(cls):
    """Names the class body sets to ``True`` (``flag = True`` or ``flag: bool = True``)."""
    flags = set()
    for item in cls.body:
        if isinstance(item, ast.Assign):
            targets = item.targets
        elif isinstance(item, ast.AnnAssign):
            targets = [item.target]
        else:
            continue
        if isinstance(item.value, ast.Constant) and item.value.value is True:
            flags.update(target.id for target in targets if isinstance(target, ast.Name))
    return flags


def test_an_overlap_capable_class_defines_prepare_iteration():
    declared, preparing = set(), set()
    for path in _files(PACKAGE_ROOT, ".py"):
        for node in ast.walk(ast.parse(_read(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            if "supports_overlap" in _true_flags(node):
                declared.add(node.name)
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if "prepare_iteration" in methods:
                preparing.add(node.name)
    assert declared == preparing == {"TGAT"}


#: No literal-name probe is left anywhere in ``src``.
ALLOWED_PROBES = set()


def _literal_probe(node):
    """The name a ``getattr``/``hasattr`` call spells as a string, ``"callable"``
    for any ``callable(...)``, else ``None``; variable names pass."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return None
    if node.func.id == "callable":
        return "callable"
    if node.func.id in ("getattr", "hasattr") and len(node.args) >= 2:
        name = node.args[1]
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            return name.value
    return None


def test_no_source_file_probes_an_object_for_a_named_member():
    """Every served thing declares its surface; callers read it as plain attributes."""
    probes = set()
    for path in _files(PACKAGE_ROOT, ".py"):
        relative = os.path.relpath(path, PACKAGE_ROOT).replace(os.sep, "/")
        for node in ast.walk(ast.parse(_read(path))):
            name = _literal_probe(node)
            if name is not None:
                probes.add((relative, name))
    assert probes == ALLOWED_PROBES


def test_an_embedding_caching_class_defines_compute_embeddings():
    declared, computing = set(), set()
    for path in _files(PACKAGE_ROOT, ".py"):
        for node in ast.walk(ast.parse(_read(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.Assign)
                    and any(
                        isinstance(target, ast.Name) and target.id == "cache_kinds"
                        for target in item.targets
                    )
                    and "embedding" in ast.literal_eval(item.value)
                ):
                    declared.add(node.name)
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if "compute_embeddings" in methods:
                computing.add(node.name)
    assert declared == computing == {"TGAT"}


def test_only_the_profiler_reads_an_event_cursor():
    """Spans are attributed by time window, not by index windows into the log."""
    readers = set()
    for path in _files(PACKAGE_ROOT, ".py"):
        for node in ast.walk(ast.parse(_read(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "event_cursor"
            ):
                readers.add(os.path.relpath(path, PACKAGE_ROOT).replace(os.sep, "/"))
    assert readers == {"core/profiler.py"}


def test_no_hw_file_names_the_tracer():
    """Spans are the serving layer's business: ``hw`` carries no tracer hook."""
    named = [
        os.path.relpath(path, REPO_ROOT)
        for path in _files(os.path.join(PACKAGE_ROOT, "hw"), ".py")
        if re.search("tracer", _read(path), re.IGNORECASE)
    ]
    assert not named, named


#: The merged-busy copies beside ``merged_runs`` and ``union_busy_ms``.
DELETED_MERGE_NAMES = re.compile(r"_merged_total|_run_start|_run_end|_union_cache|merged_busy_ms")


def test_hw_has_one_merge_rule_and_one_merged_busy_reader():
    from repro.hw.timeline import Timeline

    assert Timeline.__slots__ == ("name", "_starts", "_ends")
    named = [
        f"{os.path.relpath(path, REPO_ROOT)}: {match.group(0)}"
        for path in _files(os.path.join(PACKAGE_ROOT, "hw"), ".py")
        for match in DELETED_MERGE_NAMES.finditer(_read(path))
    ]
    assert not named, named
    topology = _class_members(ast.parse(_read(os.path.join(PACKAGE_ROOT, "hw", "topology.py"))))
    assert "busy_ms" not in topology["Topology"]


#: The 49 settable values that had exactly one value in use, by file and
#: owner (a function, ``Class.method``, or a dataclass whose fields they
#: were -- or, for the two cost tables, the function that replaced the
#: class).  None may come back as a parameter or a field.
FIXED_KNOBS = {
    "serve/fidelity.py": {
        "FidelityConfig": (
            "fanout_scale", "staleness_scale", "recovery_batches",
            "sampling_fraction", "stale_benefit", "forced_benefit",
        ),
        "FidelityController": ("config",),
    },
    "serve/autoscale.py": {
        "AutoscaleConfig": (
            "initial_replicas", "high_watermark", "low_watermark", "p99_window", "rate_window",
        ),
    },
    "serve/policy.py": {
        "SLOAwarePolicy.__init__": ("safety_factor", "estimator"),
        "ServiceTimeEstimator.__init__": ("alpha",),
    },
    "serve/placement.py": {"ShardedModel.__init__": ("root_index", "row_bytes")},
    "cache/store.py": {
        "DeviceResidentCache.__init__": ("cost_model",),
        "cache_admin_ms": ("probe_us_per_key", "insert_us_per_key", "invalidate_us_per_key"),
    },
    "cache/model_cache.py": {
        "ModelCache.__init__": ("cost_model",),
        "make_model_cache": ("cost_model",),
    },
    "graph/sampling.py": {
        "TemporalNeighborSampler.__init__": ("cost_model",),
        "target_costs_us": (
            "per_target_us", "per_candidate_us", "per_sample_us", "sort_log_factor_us",
        ),
    },
    "core/bottlenecks.py": {
        "analyze_profile": ("thresholds", "iteration_ms"),
        "detect_temporal_dependency": ("thresholds",),
        "detect_workload_imbalance": ("thresholds", "preprocessing_labels"),
        "detect_data_movement": ("thresholds",),
        "detect_gpu_warmup": ("thresholds", "iteration_ms"),
        "BottleneckThresholds": (
            "low_gpu_utilization", "small_kernel_ms", "host_preprocessing_share",
            "cpu_busy_gpu_idle", "transfer_share", "warmup_share",
        ),
    },
    "core/breakdown.py": {
        "compute_breakdown": ("region_depth", "include_warmup", "merge_below_fraction", "stream"),
    },
    "optim/overlap.py": {
        "OverlappedRunner.__init__": ("stream_name",),
        "estimate_overlap_speedup": ("host_labels",),
        "OverlapRunResult.steady_state_ms": ("skip",),
    },
}

#: What each knob became: ``module: {constant (or attribute path): value}``,
#: every value the default it replaces.
KNOB_CONSTANTS = {
    "repro.serve.fidelity": {
        "FANOUT_SCALE": 0.5, "STALENESS_SCALE": 4.0, "RECOVERY_BATCHES": 3,
        "SAMPLING_FRACTION": 0.6, "STALE_BENEFIT": 0.15, "FORCED_BENEFIT": 0.2,
    },
    "repro.serve.autoscale": {
        "HIGH_WATERMARK": 0.75, "LOW_WATERMARK": 0.30, "P99_WINDOW": 64, "RATE_WINDOW": 32,
    },
    "repro.serve.policy": {"SAFETY_FACTOR": 1.2, "ESTIMATOR_ALPHA": 0.3},
    "repro.serve.placement": {"ROOT_SHARD": 0},
    "repro.hw.spec": {
        "CACHE_PROBE_US_PER_KEY": 0.08,
        "CACHE_INSERT_US_PER_KEY": 0.12,
        "CACHE_INVALIDATE_US_PER_KEY": 0.04,
        "SAMPLING_US_PER_TARGET": 10.0,
        "SAMPLING_US_PER_CANDIDATE": 0.01,
        "SAMPLING_US_PER_SAMPLE": 0.03,
        "SAMPLING_SORT_US_PER_LOG2_DEGREE": 1.0,
    },
    "repro.core.bottlenecks": {
        "LOW_GPU_UTILIZATION": 0.10, "SMALL_KERNEL_MS": 0.05, "HOST_PREPROCESSING_SHARE": 0.40,
        "CPU_BUSY_GPU_IDLE": 0.35, "TRANSFER_SHARE": 0.30, "WARMUP_SHARE": 0.20,
        "PREPROCESSING_LABELS": (
            "Sampling (CPU)", "Sampling", "top-k", "Create T-batch", "Load Embedding",
            "Data Loading",
        ),
    },
    "repro.optim.overlap": {
        "OverlappedRunner.STREAM_NAME": "sampling",
        "HOST_LABELS": (
            "Sampling (CPU)", "Sampling", "Load Embedding", "top-k",
            "Etc(data loading, cuda sync)",
        ),
    },
}


def _settable(tree):
    """``owner -> names`` a caller can set: parameters of every function and
    method (``Class.method``) and annotated fields of every class body."""
    settable = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            settable[node.name] = {
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
    for owner, name, function in _functions(tree):
        arguments = function.args
        settable[f"{owner}.{name}" if owner else name] = {
            arg.arg for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        }
    return settable


def test_the_fixed_knobs_are_constants_not_options():
    assert sum(len(names) for owners in FIXED_KNOBS.values() for names in owners.values()) == 49
    back = []
    for relative, owners in FIXED_KNOBS.items():
        settable = _settable(ast.parse(_read(os.path.join(PACKAGE_ROOT, relative))))
        for owner, names in owners.items():
            back += [f"{relative}: {owner}({name})" for name in set(names) & settable.get(owner, set())]
    assert not back, f"settable again: {sorted(back)}"
    for module_name, constants in KNOB_CONSTANTS.items():
        module = importlib.import_module(module_name)
        for path, value in constants.items():
            head, *rest = path.split(".")
            found = getattr(module, head)
            for attribute in rest:
                found = getattr(found, attribute)
            assert found == value, (module_name, path)


def test_policy_overrides_are_declared_once_per_policy_class():
    from repro.serve.policy import POLICIES, applicable_policy_overrides, make_policy

    overrides = ("batch_timeout_ms", "slo_ms")
    tree = ast.parse(_read(os.path.join(PACKAGE_ROOT, "serve", "policy.py")))
    # The names are spelled in the class declarations and in the one helper
    # that maps make_policy's keywords to them -- no function branches on a
    # policy.
    spelled = {
        f"{owner}.{name}" if owner else name
        for owner, name, function in _functions(tree)
        if any(
            isinstance(node, ast.Constant) and node.value in overrides
            for node in ast.walk(function)
        )
    }
    assert spelled == {"_given_overrides"}
    for owner, name, function in _functions(tree):
        if name in ("make_policy", "applicable_policy_overrides"):
            attributes = {n.attr for n in ast.walk(function) if isinstance(n, ast.Attribute)}
            assert "overrides" in attributes and "name" not in attributes, name
    given = dict(zip(overrides, (4.0, 40.0)))
    for key, cls in POLICIES.items():
        assert cls.overrides == tuple(name for name in overrides if name in cls.overrides)
        accepted = {name: given[name] for name in cls.overrides}
        assert applicable_policy_overrides(key, **given) == accepted
        policy = make_policy(key, 3, **accepted)
        assert [getattr(policy, name) for name in cls.overrides] == list(accepted.values())


#: The five serving sweeps; ``run`` takes what the CLI and the goldens pass.
SERVING_SWEEPS = ("serving", "scaling", "autoscaling", "cache_ablation", "adaptive_fidelity")


def test_serving_sweeps_take_only_scale_seed_and_backend():
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import ServingSweep

    for name in SERVING_SWEEPS:
        parameters = tuple(inspect.signature(EXPERIMENTS[name]).parameters)
        assert parameters == ("scale", "seed", "backend"), name
    assert tuple(inspect.signature(ServingSweep).parameters) == (
        "calibration_topology", "scale", "seed", "backend", "slo_ms", "events_per_request",
    )


def _reads_shape_mode(node):
    return isinstance(node, ast.Attribute) and node.attr == "shape_mode"


def _launches_a_kernel(node):
    return isinstance(node, ast.Attribute) and node.attr in ("launch_kernel", "launch_kernels")


def test_one_function_chooses_the_backend_and_launches_the_kernel():
    for matches in (_reads_shape_mode, _launches_a_kernel):
        assert _sites(matches, "tensor") | _sites(matches, "nn") == {"ops.py: _run"}
        # ... and no module-level statement does either.
        found = sum(
            matches(node)
            for package in ("tensor", "nn")
            for path in _files(os.path.join(PACKAGE_ROOT, package), ".py")
            for node in ast.walk(ast.parse(_read(path)))
        )
        assert found == 1


#: The options nothing in ``src/`` or ``benchmarks/`` set, by file and owner.
#: None may come back as a parameter.
DELETED_OPTIONS = {
    "tensor/tensor.py": {"Tensor.to": ("record", "non_blocking", "track_memory")},
    "tensor/ops.py": {"spmm": ("nnz",)},
    "nn/linear.py": {
        "Linear.__init__": ("bias",),
        "MLP.__init__": ("activation", "final_activation"),
    },
    "nn/conv.py": {"normalized_adjacency": ("add_self_loops",)},
}


def test_the_deleted_tensor_and_nn_options_stay_deleted():
    assert sum(len(names) for owners in DELETED_OPTIONS.values() for names in owners.values()) == 8
    back = []
    for relative, owners in DELETED_OPTIONS.items():
        settable = _settable(ast.parse(_read(os.path.join(PACKAGE_ROOT, relative))))
        for owner, names in owners.items():
            assert owner in settable, (relative, owner)
            back += [f"{relative}: {owner}({name})" for name in set(names) & settable[owner]]
    assert not back, f"settable again: {sorted(back)}"


def test_every_operator_and_nn_class_has_a_caller_in_src():
    from repro.tensor import ops

    operators = {
        name
        for name, value in vars(ops).items()
        if inspect.isfunction(value) and value.__module__ == ops.__name__ and name[0] != "_"
    }
    classes = {
        node.name
        for path in _files(os.path.join(PACKAGE_ROOT, "nn"), ".py")
        for node in ast.parse(_read(path)).body
        if isinstance(node, ast.ClassDef) and node.name[0] != "_"
    }
    called, named = set(), set()
    for path in _files(PACKAGE_ROOT, ".py"):
        if path.endswith(os.path.join("nn", "__init__.py")):
            continue  # a re-export is not a caller
        for node in ast.walk(ast.parse(_read(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "ops":
                    called.add(node.attr)
                named.add(node.attr)
            elif isinstance(node, ast.Name):
                named.add(node.id)
    assert sorted(operators - called) == []
    assert sorted(classes - named) == []


#: A name that prices work: ``*_us``, ``*_us_per_*``, ``*_ms_per_*`` or
#: ``*_factor``, in any case.
PRICE_NAME = re.compile(r"(_us|_factor)$|_us_per_|_ms_per_", re.IGNORECASE)

#: Names that match :data:`PRICE_NAME` outside ``hw/spec.py`` but price no
#: work: the SLO policy's margin over its service-time estimate.
NOT_PRICES = {"serve/policy.py": {"SAFETY_FACTOR"}}


def test_every_price_is_defined_in_hw_spec():
    """No other module defines a price, as a module constant or as a class
    constant or field (the form the two cost-table singletons had)."""
    stray = []
    for path in _files(PACKAGE_ROOT, ".py"):
        relative = os.path.relpath(path, PACKAGE_ROOT).replace(os.sep, "/")
        if relative == "hw/spec.py":
            continue
        for node in ast.parse(_read(path)).body:
            for item in node.body if isinstance(node, ast.ClassDef) else (node,):
                if isinstance(item, ast.Assign):
                    targets = item.targets
                elif isinstance(item, ast.AnnAssign):
                    targets = [item.target]
                else:
                    continue
                stray += [
                    f"{relative}: {target.id}"
                    for target in targets
                    if isinstance(target, ast.Name)
                    and PRICE_NAME.search(target.id)
                    and target.id not in NOT_PRICES.get(relative, ())
                ]
    assert not stray, stray


def test_no_host_work_charge_spells_a_price():
    """A ``host_work`` duration reads its prices from ``hw.spec``; the only
    literal it may hold is the microseconds-to-milliseconds factor."""
    spelled = []
    for path in _files(PACKAGE_ROOT, ".py"):
        relative = os.path.relpath(path, PACKAGE_ROOT).replace(os.sep, "/")
        for node in ast.walk(ast.parse(_read(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "host_work"
            ):
                continue
            durations = node.args[1:2] + [k.value for k in node.keywords if k.arg == "duration_ms"]
            assert len(durations) == 1, f"{relative}:{node.lineno}"
            spelled += [
                f"{relative}:{node.lineno}: {literal.value!r}"
                for literal in ast.walk(durations[0])
                if isinstance(literal, ast.Constant)
                and type(literal.value) in (int, float)
                and literal.value != 1e-3
            ]
    assert not spelled, spelled


def test_every_host_work_price_has_a_reader_that_reads_it_from_spec():
    """Each of the 13 prices is read as ``spec.NAME`` somewhere in ``src``, and
    nothing imports one by name (a rebinding of ``hw.spec`` must reach it)."""
    from repro.hw import spec

    prices = {name for name in vars(spec) if name.isupper() and PRICE_NAME.search(name)}
    assert len(prices) == 13, sorted(prices)
    read, imported = set(), []
    for path in _files(PACKAGE_ROOT, ".py"):
        relative = os.path.relpath(path, PACKAGE_ROOT).replace(os.sep, "/")
        if relative == "hw/spec.py":
            continue
        for node in ast.walk(ast.parse(_read(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "spec"
            ):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{relative}: {a.name}" for a in node.names if a.name in prices]
    assert sorted(prices - read) == []
    assert not imported, imported


#: The guards that stay inline, ``{"file:function": why}``.  Everything else
#: checks a number's range through ``repro.domain.Domain`` at its owner's entry.
INLINE_GUARDS = {
    **{
        f"hw/timeline.py:Timeline.{name}": "per reservation or read of a timeline"
        for name in ("reserve", "reserve_run", "utilization_series", "from_intervals")
    },
    "hw/memory.py:MemoryPool.__init__": "per device pool",
    "hw/memory.py:MemoryPool.alloc": "per alloc",
    **{
        f"hw/machine.py:Machine.{name}": "per charge"
        for name in ("advance_host", "host_work", "transfer", "launch_kernels")
    },
    "hw/cluster.py:Cluster.transfer": "per charge",
    "hw/device.py:Device.kernel_ms": "per kernel cost miss",
    "hw/events.py:check_event": "per event row",
    "hw/spec.py:LinkSpec.transfer_ms": "per transfer cost",
    "hw/spec.py:WarmupSpec.allocation_warmup_ms": "per warm-up charge",
    "graph/sampling.py:TemporalNeighborSampler.sample": "per sampler call (k)",
    "graph/sampling.py:TemporalNeighborSampler._query": "per sampler call (node ids)",
    "graph/sampling.py:TemporalNeighborSampler.total_degree": "per degree query",
    "cache/model_cache.py:_sample_record": "per cache sample call (k, as the sampler)",
    "graph/events.py:EventStream.__init__": "per stream slice; order and id range",
    "graph/snapshots.py:SnapshotSequence.__init__": "per snapshot window; time order",
    "graph/tbatch.py:validate_tbatches": "an order check across a batch list",
    "nn/time_encoding.py:PositionalEncoding.forward": "per forward (sequence length)",
    "tensor/ops.py:_axis": "per operator call",
}

ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _raises_value_error(statements):
    for node in (n for statement in statements for n in ast.walk(statement)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                return True
    return False


def _range_guards(tree, scope=()):
    """``(qualified function, line)`` of every ``if`` whose test compares by
    order and whose body raises ``ValueError``, in the function that owns it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _range_guards(node, scope + (node.name,))
            continue
        if (
            isinstance(node, ast.If)
            and any(
                isinstance(test, ast.Compare) and any(isinstance(op, ORDERING) for op in test.ops)
                for test in ast.walk(node.test)
            )
            and _raises_value_error(node.body)
        ):
            yield ".".join(scope), node.lineno
        yield from _range_guards(node, scope)


def test_a_range_check_outside_the_per_call_guards_goes_through_domain():
    found, inline = [], set()
    for path in _files(PACKAGE_ROOT, ".py"):
        relative = os.path.relpath(path, PACKAGE_ROOT).replace(os.sep, "/")
        for function, line in _range_guards(ast.parse(_read(path))):
            key = f"{relative}:{function}"
            if key in INLINE_GUARDS:
                inline.add(key)
            else:
                found.append(f"{relative}:{line} {function}")
    assert not found, f"range checks beside repro.domain.Domain: {found}"
    # A guard that moved or went away leaves the list too.
    assert inline == set(INLINE_GUARDS), sorted(set(INLINE_GUARDS) - inline)
