"""Worker interpreter: one round of operations, each timed against the kernel.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It imports ``cumulants`` first, so the moment the import completes is the
end of set-up, and reports that moment.  Then it reads the operation list and
runs one operation per ``go`` line from the runner, answering with a frame:
a JSON header line, then ``len`` bytes of payload (the captured stdout of a
CLI call, or the library result as plain Python data, pickled).

The kernel is timed ``KERNELS_AROUND`` times immediately before and after
each operation, and every ``SAMPLE_PERIOD_S`` during it from an
interval-timer signal, so a long operation is compared with the machine's
speed over its whole span, not at its two ends.  Kernel time spent inside
the operation is subtracted from its wall time.  The header carries every
kernel time with the moment it started; the runner turns them into the
operation's reference time.

``--probe`` stops after reporting the set-up time.
"""

import sys
import time

import cumulants

READY = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import cumulants.cli  # noqa: E402
from kernel import kernel_seconds  # noqa: E402

OUT = sys.stdout.buffer
SAMPLE_PERIOD_S = 0.02
KERNELS_AROUND = 3
#: (start, seconds) of each kernel run inside the current operation.
_samples: list[tuple[float, float]] = []
#: Total kernel time measured inside operations so far.
_sampled = [0.0]


def _kernel() -> tuple[float, float]:
    return time.perf_counter(), kernel_seconds()


def _sample(signum, frame):
    sample = _kernel()
    _samples.append(sample)
    _sampled[0] += sample[1]


def clock() -> float:
    """Wall clock that stands still while the kernel runs inside an operation."""
    return time.perf_counter() - _sampled[0]


def send(header: dict, payload: bytes = b"") -> None:
    header["len"] = len(payload)
    OUT.write(json.dumps(header).encode() + b"\n" + payload)
    OUT.flush()


def peak_rss_kb() -> int:
    """This interpreter's resident high-water mark.  ``ru_maxrss`` would also
    count the runner's memory, which the child shares between its spawn and
    its exec; ``VmHWM`` belongs to the worker's own address space."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def prepare(op: dict):
    """The call to time, with its inputs parsed beforehand."""
    call = op["call"]
    if call == "cli":
        argv = op["argv"]
        return lambda: cumulants.cli.main(argv)
    p = cumulants.SetPartition.parse(op["arg"])
    if call == "csp":
        algo = op["algo"]
        return lambda: cumulants.CSP_ALGORITHMS[algo](p)
    fn_name = call
    return lambda: getattr(cumulants, fn_name)(p)


def payload(op: dict, result, captured: str) -> bytes:
    """What the runner checks: the CLI's stdout, or the library result as
    plain data shaped like the CLI's JSON; polynomial terms stay in the
    package's (factor key, coefficient) form, expanded by the runner."""
    call = op["call"]
    if call == "cli":
        return captured.encode()
    if call == "csp":
        doc = {"complementary": [q.render() for q in result.complementary]}
    elif call == "generalized_cumulant":
        doc = {"terms": list(result.terms.items())}
    else:
        doc = {"count": result}
    return pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)


def run_op(op: dict, tracer) -> None:
    fn = prepare(op)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    kernels = [_kernel() for _ in range(KERNELS_AROUND)]
    _samples.clear()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
            start = time.perf_counter()
            t0 = clock()
            try:
                result = fn()
            finally:
                t1 = clock()
                end = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
    except Exception as exc:  # reported to the runner as a failed operation
        if tracer is not None:
            tracer.take()
        send({"error": f"{type(exc).__name__}: {exc}"})
        return
    kernels += _samples
    kernels += [_kernel() for _ in range(KERNELS_AROUND)]
    captured = out.getvalue()
    header = {
        "wall": t1 - t0,
        "start": start,
        "end": end,
        "kernels": kernels,
        "stderr": err.getvalue()[-2000:],
    }
    if op["call"] == "cli":
        header["rc"] = result
        header["out_bytes"] = len(captured.encode())
    if tracer is not None:
        header["spans"], header["folds"] = tracer.take()
    send(header, payload(op, result, captured))


def main() -> None:
    send({"ready": READY, "pid": os.getpid(), "module": cumulants.__file__})
    if "--probe" in sys.argv:
        return
    signal.signal(signal.SIGALRM, _sample)
    tracer = None
    if "--trace" in sys.argv:
        from tracer import Tracer
        tracer = Tracer(clock)
        tracer.install()
    ops = json.loads(sys.stdin.readline())
    for line in sys.stdin:
        command = line.split()
        if command[0] == "go":
            run_op(ops[int(command[1])], tracer)
        else:
            send({"maxrss_kb": peak_rss_kb()})
            return


if __name__ == "__main__":
    main()
