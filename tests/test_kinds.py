"""The sweep-kind registry is the one declaration: everything here is
driven by ``repro.kinds``, so a newly registered kind is covered
without touching this file (as long as its parameters reuse the
sampled names below).

* the batch command's artifact, under the kind's own stable projection,
  is byte-identical to what the service stores for the same request;
* every declared parameter is the same flag on ``<kind>`` and on
  ``submit <kind>``.
"""

import argparse
import json

import pytest

from repro import cli
from repro.kinds import EXECUTION, get_kind, kind_names
from repro.service import ArtifactStore, JobManager, canonical_bytes

from tests.service.conftest import wait_done

#: Small values for the parameters that size a sweep; everything else
#: keeps its declared default.
SAMPLE = {"interface": "sockets-unordered", "name": "sockets",
          "ladder": [2, 4]}


def _request(kind):
    return {p.name: SAMPLE[p.name] for p in kind.params if p.name in SAMPLE}


def _argv(kind, request):
    """``request`` spelled with the kind's own flags."""
    argv = []
    for param in kind.params:
        if param.name not in request:
            continue
        value = request[param.name]
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        argv += [param.flag, value] if param.flag.startswith("-") else [value]
    return argv


def _subcommands(parser):
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _action(parser, dest):
    (action,) = [a for a in parser._actions if a.dest == dest]
    return action


@pytest.mark.parametrize("name", kind_names())
class TestEveryKind:
    def test_batch_artifact_equals_service_artifact(self, name, tmp_path,
                                                    monkeypatch, capsys):
        kind = get_kind(name)
        request = _request(kind)
        monkeypatch.chdir(tmp_path)  # the default cache lands in tmp_path
        out = str(tmp_path / "batch.json")
        rc = cli.main([name, *_argv(kind, request), "--quiet", "--out", out])
        assert rc == 0
        with open(out) as f:
            batch = canonical_bytes(kind.strip(json.load(f)))

        store = ArtifactStore(str(tmp_path / "store"))
        manager = JobManager(cache=str(tmp_path / "svc-cache.json"),
                             store=store, workers=1)
        try:
            record = wait_done(manager, manager.submit(name, request).id,
                               timeout=600)
        finally:
            manager.shutdown()
        assert record.status == "done", record.error
        assert store.get_bytes(record.artifact) == batch
        assert record.summary == kind.summary(json.loads(batch))

    def test_same_flags_on_batch_and_submit(self, name):
        commands = _subcommands(cli.build_parser())
        batch = commands[name]
        submit = _subcommands(commands["submit"])[name]
        for param in get_kind(name).params + EXECUTION:
            ours, theirs = _action(batch, param.name), _action(submit,
                                                               param.name)
            expected = [param.flag] if param.flag.startswith("-") else []
            assert ours.option_strings == theirs.option_strings == expected
            for field in ("default", "type", "help", "metavar", "nargs"):
                assert getattr(ours, field) == getattr(theirs, field)
            assert ours.default == param.default
