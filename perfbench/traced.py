"""Run one bridgebound CLI command in-process, with a span at every layer call.

    python3 perfbench/traced.py --spans SPANS.json --command ID -- <bridgebound args>

The targets listed in layers.TARGETS are wrapped in every bridgebound module
namespace that binds them (a function imported into two modules is wrapped in
both), then ``bridgebound.cli.main(argv)`` runs as usual. Spans are kept in
memory and written to SPANS.json when the command ends; the exit code is the
command's own. Nothing in the package is edited.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import threading
import time

import layers


class CallArgs:
    """Read-only view of one call's arguments by parameter name."""

    __slots__ = ("args", "kwargs", "params")

    def __init__(self, args, kwargs, params):
        self.args, self.kwargs, self.params = args, kwargs, params

    def get(self, name, default=None):
        if name in self.kwargs:
            return self.kwargs[name]
        pos, fallback = self.params[name]
        if pos < len(self.args):
            return self.args[pos]
        return default if fallback is inspect.Parameter.empty else fallback

    def __getitem__(self, name):
        return self.get(name)


class Tracer:
    """Thread-safe span recorder.

    A span is [key index, span id, parent id, start, end, draw id, counts].
    The parent is the innermost open span of the same thread; a worker thread
    with no open span hangs its spans under the main thread's innermost span,
    which is the one waiting for it. The draw id is the `t` argument of the
    enclosing draw on the same thread.
    """

    def __init__(self, keys):
        self.keys = list(keys)
        self.spans = []
        self.broken = set()   # keys whose counter no longer fits the call
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()
        self._main_stack = self._state().stack   # the thread that runs the command

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = set()
            local.draw = None
        return local

    def wrap(self, key, fn, counter, draw_arg):
        idx = self.keys.index(key)
        try:
            params = {name: (pos, p.default) for pos, (name, p)
                      in enumerate(inspect.signature(fn).parameters.items())}
        except (TypeError, ValueError):  # no introspectable signature: counters fail soft
            params = {}
        if draw_arg not in params:
            draw_arg = None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            if idx in local.active:
                return fn(*args, **kwargs)  # recursion: outermost span only
            stack = local.stack
            if stack:
                parent = stack[-1][1]
            else:
                main = tracer._main_stack
                parent = main[-1][1] if main else None
            with tracer._lock:
                tracer._next += 1
                sid = tracer._next
            call = CallArgs(args, kwargs, params) if counter or draw_arg else None
            prev_draw = local.draw
            if draw_arg:
                local.draw = call[draw_arg]
            stack.append((idx, sid))
            local.active.add(idx)
            result = done = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                local.active.discard(idx)
                draw = local.draw
                local.draw = prev_draw
                tracer.spans.append([idx, sid, parent, t0, t1, draw,
                                     tracer.count(key, counter, call, result) if done else None])
            return result

        return traced

    def count(self, key, counter, call, result):
        if counter is None:
            return None
        try:
            return counter(call, result)
        except (KeyError, AttributeError, TypeError, IndexError, ValueError):
            self.broken.add(key)
            return None


def _resolve(target):
    module_name, qualname = target.split(":")
    module = importlib.import_module("bridgebound." + module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def install(tracer):
    """Wrap every target; return the targets that could not be found."""
    missing = []
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bridgebound" or name.startswith("bridgebound.")]
    for key, target, counter in layers.TARGETS:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            missing.append(target)
            continue
        draw_arg = "t" if target == layers.DRAW_TARGET else None
        wrapped = tracer.wrap(key, original, counter, draw_arg)
        setattr(owner, attr, wrapped)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    return missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--command", required=True, help="command id for the spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    cli = importlib.import_module("bridgebound.cli")
    import_s = time.perf_counter() - t0

    keys = list(dict.fromkeys(key for key, _, _ in layers.TARGETS))
    tracer = Tracer(keys)
    missing = install(tracer)
    try:
        code = cli.main(argv)
    finally:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"command": args.command, "keys": keys, "import_s": import_s,
                       "missing": missing, "broken": sorted(tracer.broken),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
