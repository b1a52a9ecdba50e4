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
     "3768c4690e00252f58da35c9d05ed68081e4a7dbd75a6f138302b0240d6f253e"),
    ("bus --deploys 12 --concurrency 4 --fault drop --rate 0.5 --fault-at 2 "
     "--fault-duration 60",
     "0b68293fc2821c9c4920ec2d444f95d35123bb3351754e02cfe2d2ddfd53380d"),
    ("bus --deploys 12 --concurrency 4 --fault duplicate --fault-at 2 --fault-duration 40",
     "940047c5b196b40da64f6da68d977475c60a6f9e808b64ffb5d1546ce06e51cf"),
    ("bus --deploys 12 --concurrency 4 --fault delay --fault-at 2 --fault-duration 40",
     "f8a4a7a476de550ae77e56f34e4ca0353069f4b928d174c3937cac17be5ff2df"),
    ("bus --deploys 12 --concurrency 4 --fault reorder --fault-at 2 --fault-duration 40",
     "1982a8ea032ebdc4b114d6adab71a37cd0852050394389552f20949d4fa4d968"),
    ("bus --deploys 12 --concurrency 4 --fault partition --fault-at 2 --fault-duration 40",
     "83b9be53c0136ba6431f4896dd592d095397c3a56b73779f833e245d4cc91dc2"),
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
