"""CLI views print exactly what they printed before a refactor.

Each run below takes well under 0.1 s. The sha256 of its stdout pins
the whole printed report, so a refactor of the command bodies (shared
cells, shared checks) that changes one character fails here. The
``repro.faults.chaos`` sweeps are pinned the same way: their summary
line sums every fault draw's effect, so a change that shifts one draw
fails here even when exactly-once still holds.
"""

import contextlib
import hashlib
import io

import pytest

from repro.cli import main
from repro.faults.chaos import main as chaos_main

DIGESTS = [
    ("storm --clones 8 --concurrency 4 --hosts 4",
     "f95263803737bd35e98812dff327e8cb47f5a64e39015d2c154b4754a1d9d38f"),
    ("sweep config.cpu_workers 4,8 --clones 16",
     "3b68ac95ce451a6d5929cfe66abb7ff62846a71148ee3d7179a1d63615aa1c2c"),
    ("bus --deploys 12 --concurrency 4",
     "1861d01129505350e7349466cc462a13a04f8dac3a6137d21f0c9dfbbac6d613"),
    ("bus --deploys 12 --concurrency 4 --fault drop --rate 0.5 --fault-at 2 "
     "--fault-duration 60",
     "b98174ab49e11e615117ec14922586e23992bc980e9261618fe90f01c33a3d2d"),
    ("bus --deploys 12 --concurrency 4 --fault duplicate --fault-at 2 --fault-duration 40",
     "994835f45faf7d4a0eea02258ffb30fb2153becf339fd4b6960ba53e7cc2ec3a"),
    ("bus --deploys 12 --concurrency 4 --fault delay --fault-at 2 --fault-duration 40",
     "559702a0db9474ea40692aef2340ce747ca7c54939b285569fa1f46ede1211ca"),
    ("bus --deploys 12 --concurrency 4 --fault reorder --fault-at 2 --fault-duration 40",
     "26408990782add558ea188e5062704494216cb4f140acdb5a1f973ce77fb1d7a"),
    ("bus --deploys 12 --concurrency 4 --fault partition --fault-at 2 --fault-duration 40",
     "f560b149b8c4a10997bee52af49e5f3e5429ddb864df7f54d8fceea30927dc2e"),
    ("recover --clones 8 --concurrency 3 --crash-at 3",
     "a58832ac59ab20312dfd85beda93c13300ae1ca36d099c64c8eead06c427cc27"),
    ("federation --deploys 24 --concurrency 8 --crash-at 10",
     "1a80512805cf00ad21b450e60c223fb9c7466250bf59abd49bc99b5eca812db7"),
    ("federation --deploys 24 --concurrency 8 --crash-at 10 --affinity-only",
     "d43b1eceed3b4e668807a914b16453f934e53d2a7928430bce5449e37ed556bd"),
    ("trace --clones 8 --concurrency 4 --sample 256",
     "9b25046a2edde5b1834481a2441e9e3dbbc04595e60d9e88b282fc9e429ddf3e"),
]


@pytest.mark.parametrize("command,digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_cli_stdout_digest(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


CHAOS_DIGESTS = [
    ("--mode message --seeds 2 --points 5",
     "95d8ea43288049386468a5dcc25e997f6aa86f45225a0025822512bbfa63028d"),
    ("--mode federation --seeds 1 --points 7",
     "d176e6d827ee0db2a23e6a03624dfa53876f38e2eeb00cc38a8e51fd3f2e54a7"),
]


@pytest.mark.parametrize(
    "command,digest", CHAOS_DIGESTS, ids=[c for c, _ in CHAOS_DIGESTS]
)
def test_chaos_stdout_digest(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert chaos_main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
