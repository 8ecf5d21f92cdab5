"""Which fusenav functions the traced run wraps, and the per-layer metrics
computed from one traced job's spans.

Stage times (``*_s``) are inclusive: a span's own time plus that of the
wrapped calls it made (``sim.synth_gps_s`` contains its ``geo`` calls,
``localizer.run_s`` its ``propagate``/``gps_update`` steps).  Groups whose
members call each other (``geo``, the ``cli`` readers and writers) count
only their outermost spans, so nothing is counted twice.  Self times per
span name are written to the trace file.  Metrics of a layer that did not
run in a workload read 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import file_size, outermost

GEO_FUNCS = (
    "wgs84_to_ecef",
    "ecef_to_wgs84",
    "ecef_to_enu",
    "enu_to_ecef",
    "wgs84_to_enu",
    "enu_to_wgs84",
    "enu_frame_transform",
    "enu_to_enu",
    "cluster_waypoints",
    "label_ground_truth",
)
READERS = (
    "load_scenario",
    "read_imu_csv",
    "read_gps_csv",
    "read_sonar_csv",
    "read_pose_csv",
    "read_offsets_cfg",
)
# fused.csv, feedback.csv and report.csv are written through the two
# private helpers; without them cli.write_s would miss three files.
WRITERS = (
    "write_imu_csv",
    "write_gps_csv",
    "write_sonar_csv",
    "write_pose_csv",
    "write_offsets_cfg",
    "_write_report_csv",
    "_write_csv",
)


def _length(args, kwargs, result):
    return len(result)


def _raycast_checks(args, kwargs, result):
    # gen_walk(scenario): ticks x channels x obstacles, all tested every tick
    return len(result.t) * len(result.sonar_true) * len(args[0].obstacles)


def _run_counts(args, kwargs, result):
    return len(result.t), result.accepted_fixes, result.rejected_fixes


def _masked(args, kwargs, result):
    # update(state, z, cfg, valid=(True, True))
    valid = args[3] if len(args) > 3 else kwargs.get("valid", (True, True))
    return not all(valid)


def _event_kinds(args, kwargs, result):
    return [event.kind.value for event in result]


def _done(args, kwargs, result):
    return sum(not r.failed for r in result)


def _submit(args, kwargs, result):
    # RecognitionGate.submit(self, event): only obstacles are dispatched
    return args[1].kind.value == "obstacle", _done(args, kwargs, result)


def _emitted(args, kwargs, result):
    return result is not None


# (target, span name, note); ``cli`` binds calibrate and run_localizer by
# name, so they are wrapped there as well, under the localizer's span names.
WRAPS = [
    ("sim.gen_walk", "sim.gen_walk", _raycast_checks),
    ("sim.synth_imu", "sim.synth_imu", _length),
    ("sim.synth_gps", "sim.synth_gps", None),
    ("sim.synth_sonar", "sim.synth_sonar", _length),
    ("sim.stationary_imu_source", "sim.stationary_imu_source", None),
    ("sim.truth_trajectory", "sim.truth_trajectory", None),
    *((f"geo.{f}", f"geo.{f}", None) for f in GEO_FUNCS),
    ("localizer.calibrate", "localizer.calibrate", None),
    ("cli.calibrate", "localizer.calibrate", None),
    ("localizer.run_localizer", "localizer.run_localizer", _run_counts),
    ("cli.run_localizer", "localizer.run_localizer", _run_counts),
    ("localizer.propagate", "localizer.propagate", None),
    ("localizer.gps_update", "localizer.gps_update", None),
    ("sonar_ekf.init", "sonar_ekf.init", None),
    ("sonar_ekf.predict", "sonar_ekf.predict", None),
    ("sonar_ekf.update", "sonar_ekf.update", _masked),
    ("perception.ObstacleDetector.process", "perception.process", _event_kinds),
    ("perception.RecognitionGate.submit", "perception.submit", _submit),
    ("perception.RecognitionGate.poll", "perception.poll", _done),
    ("perception.RecognitionGate.flush", "perception.flush", _done),
    ("feedback.AudioScheduler.offer", "feedback.offer", None),
    ("feedback.AudioScheduler.poll", "feedback.poll", _emitted),
    ("metrics.evaluate", "metrics.evaluate", None),
    *((f"cli.{f}", f"cli.{f}", file_size) for f in READERS + WRITERS),
]

# name -> unit; BENCHMARK.json gives each its direction
PER_LAYER = {
    "sim.gen_walk_s": "s",
    "sim.synth_imu_s": "s",
    "sim.synth_gps_s": "s",
    "sim.synth_sonar_s": "s",
    "sim.imu_samples": "count",
    "sim.sonar_pings": "count",
    "sim.raycast_checks": "count",
    "geo.convert_s": "s",
    "geo.convert_calls": "count",
    "cli.import_s": "s",
    "cli.write_s": "s",
    "cli.write_sonar_s": "s",
    "cli.read_s": "s",
    "cli.read_sonar_s": "s",
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
    "localizer.calibrate_s": "s",
    "localizer.run_s": "s",
    "localizer.step_us": "us",
    "localizer.propagate_us": "us",
    "localizer.gps_update_us": "us",
    "localizer.fixes_accepted": "count",
    "localizer.fixes_rejected": "count",
    "localizer.accept_ratio": "ratio",
    "sonar_ekf.fusion_s": "s",
    "sonar_ekf.update_us": "us",
    "sonar_ekf.ticks": "count",
    "sonar_ekf.masked_ticks": "count",
    "perception.detect_s": "s",
    "perception.process_us": "us",
    "perception.events_obstacle": "count",
    "perception.events_dropoff": "count",
    "perception.recognitions_submitted": "count",
    "perception.recognitions_done": "count",
    "perception.done_ratio": "ratio",
    "feedback.schedule_s": "s",
    "feedback.audio_offered": "count",
    "feedback.audio_emitted": "count",
    "feedback.emit_ratio": "ratio",
    "metrics.evaluate_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, import_s: float) -> dict:
    """Every PER_LAYER metric except trace.overhead_s, for one traced job."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)

    def total(*names):
        return sum(s[2] - s[1] for n in names for s in by_name[n])

    def calls(name):
        return len(by_name[name])

    def notes(name):
        return [s[4] for s in by_name[name]]

    def mean_us(name):
        return _ratio(total(name), calls(name)) * 1e6

    def group(names):
        top = outermost(spans, {f"cli.{n}" for n in names})
        return sum(s[2] - s[1] for s in top), sum(s[4] for s in top)

    geo_top = outermost(spans, {f"geo.{f}" for f in GEO_FUNCS})
    read_s, bytes_read = group(READERS)
    write_s, bytes_written = group(WRITERS)
    runs = notes("localizer.run_localizer")
    steps = sum(r[0] for r in runs)
    accepted = sum(r[1] for r in runs)
    rejected = sum(r[2] for r in runs)
    updates = calls("sonar_ekf.update")
    kinds = [k for ks in notes("perception.process") for k in ks]
    submits = notes("perception.submit")
    submitted = sum(s[0] for s in submits)
    done = (
        sum(s[1] for s in submits)
        + sum(notes("perception.poll"))
        + sum(notes("perception.flush"))
    )
    offered = calls("feedback.offer")
    emitted = sum(notes("feedback.poll"))
    return {
        "sim.gen_walk_s": total("sim.gen_walk"),
        "sim.synth_imu_s": total("sim.synth_imu"),
        "sim.synth_gps_s": total("sim.synth_gps"),
        "sim.synth_sonar_s": total("sim.synth_sonar"),
        "sim.imu_samples": sum(notes("sim.synth_imu")),
        "sim.sonar_pings": sum(notes("sim.synth_sonar")),
        "sim.raycast_checks": sum(notes("sim.gen_walk")),
        "geo.convert_s": sum(s[2] - s[1] for s in geo_top),
        "geo.convert_calls": len(geo_top),
        "cli.import_s": import_s,
        "cli.write_s": write_s,
        "cli.write_sonar_s": total("cli.write_sonar_csv"),
        "cli.read_s": read_s,
        "cli.read_sonar_s": total("cli.read_sonar_csv"),
        "cli.bytes_written": bytes_written,
        "cli.bytes_read": bytes_read,
        "localizer.calibrate_s": total("localizer.calibrate"),
        "localizer.run_s": total("localizer.run_localizer"),
        "localizer.step_us": _ratio(total("localizer.run_localizer"), steps) * 1e6,
        "localizer.propagate_us": mean_us("localizer.propagate"),
        "localizer.gps_update_us": mean_us("localizer.gps_update"),
        "localizer.fixes_accepted": accepted,
        "localizer.fixes_rejected": rejected,
        "localizer.accept_ratio": _ratio(accepted, accepted + rejected),
        "sonar_ekf.fusion_s": total("sonar_ekf.init", "sonar_ekf.predict", "sonar_ekf.update"),
        "sonar_ekf.update_us": _ratio(total("sonar_ekf.predict", "sonar_ekf.update"), updates)
        * 1e6,
        "sonar_ekf.ticks": calls("sonar_ekf.init") + updates,
        "sonar_ekf.masked_ticks": sum(notes("sonar_ekf.update")),
        "perception.detect_s": total(
            "perception.process", "perception.submit", "perception.poll", "perception.flush"
        ),
        "perception.process_us": mean_us("perception.process"),
        "perception.events_obstacle": kinds.count("obstacle"),
        "perception.events_dropoff": kinds.count("dropoff"),
        "perception.recognitions_submitted": submitted,
        "perception.recognitions_done": done,
        "perception.done_ratio": _ratio(done, submitted),
        "feedback.schedule_s": total("feedback.offer", "feedback.poll"),
        "feedback.audio_offered": offered,
        "feedback.audio_emitted": emitted,
        "feedback.emit_ratio": _ratio(emitted, offered),
        "metrics.evaluate_s": total("metrics.evaluate"),
    }
