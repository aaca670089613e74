"""Hand-written expected outcomes the benchmark checks every output against.

Nothing here is computed by the code under test.  The decision table was
derived by reading ``DEFAULT_SACK_POLICY`` and ``IVI_APPARMOR_PROFILES``
(``src/repro/vehicle/ivi.py``):

* Independent SACK guards ``/dev/car/**``: a governed path is allowed only
  by a rule of a permission the current state grants; ``/var/**`` is
  ungoverned.  NORMAL (``read /dev/car/**``) and AUDIO_SAFE (``ioctl
  audio VOLUME_GET``) hold in every state; AUDIO_FULL (``VOLUME_SET`` for
  volume_service) and ENGINE_CONTROL (ignition_service) only in
  parking_with_driver; CONTROL_CAR_DOORS (door/window ioctls for
  rescue_daemon) only in emergency.
* SACK-enhanced AppArmor injects the same rules into the target profiles,
  an ioctl rule becoming read access for read-direction commands and
  write access otherwise.  AppArmor mediates an ioctl as that access to
  the node, and the static profiles grant no write to ``/dev/car/*``.

Every request opens ``O_RDONLY`` first; all reads in the mix are granted
by NORMAL (SACK) and by the static profiles (AppArmor), so a denial can
only happen at the ioctl.
"""

from __future__ import annotations

DRIVING = "driving"
PARKED = "parking_with_driver"
UNATTENDED = "parking_without_driver"
EMERGENCY = "emergency"
STATES = (DRIVING, PARKED, UNATTENDED, EMERGENCY)

#: The two enforcement prototypes every IVI workload runs side by side.
PROTOTYPES = ("sack-apparmor", "sack-independent")

OK = "ok"
DENIED = "EACCES@ioctl"

#: Fig. 2 state machine of DEFAULT_SACK_POLICY: (state, event) -> state.
#: ``crash_detected`` in emergency is a self-transition, which the SSM
#: ignores, so it is absent.
TRANSITIONS = {
    (PARKED, "vehicle_started"): DRIVING,
    (DRIVING, "vehicle_parked"): PARKED,
    (PARKED, "driver_left"): UNATTENDED,
    (UNATTENDED, "driver_returned"): PARKED,
    (DRIVING, "crash_detected"): EMERGENCY,
    (PARKED, "crash_detected"): EMERGENCY,
    (UNATTENDED, "crash_detected"): EMERGENCY,
    (EMERGENCY, "emergency_cleared"): PARKED,
}

#: Request kinds: name -> (app, device path or file prefix, ioctl symbol
#: or None for a read).  File prefixes end in "/" and get a numbered name.
REQUESTS = {
    "tele_speed": ("nav_app", "/dev/car/speedometer", None),
    "tele_audio": ("media_app", "/dev/car/audio", None),
    "tele_door": ("rescue_daemon", "/dev/car/door", None),
    "media_file": ("media_app", "/var/media/", None),
    "nav_file": ("nav_app", "/var/nav/", None),
    "vol_get": ("volume_service", "/dev/car/audio", "VOLUME_GET"),
    "vol_set": ("volume_service", "/dev/car/audio", "VOLUME_SET"),
    "ign_start": ("ignition_service", "/dev/car/engine", "ENGINE_START"),
    "ign_stop": ("ignition_service", "/dev/car/engine", "ENGINE_STOP"),
    "koffee_door": ("media_app", "/dev/car/door", "DOOR_UNLOCK"),
    "koffee_window": ("media_app", "/dev/car/window", "WINDOW_DOWN"),
    "rescue_lock": ("rescue_daemon", "/dev/car/door", "DOOR_LOCK"),
}


def _row(driving, parked, unattended, emergency):
    return {DRIVING: driving, PARKED: parked, UNATTENDED: unattended,
            EMERGENCY: emergency}


_ALWAYS = _row(OK, OK, OK, OK)
_NEVER = _row(DENIED, DENIED, DENIED, DENIED)
_PARKED_ONLY = _row(DENIED, OK, DENIED, DENIED)
_EMERGENCY_ONLY = _row(DENIED, DENIED, DENIED, OK)

#: prototype -> request kind -> state -> expected outcome.  The two
#: prototypes agree on this mix (the verifier's P5 equivalence), but each
#: is written out so a divergence in either stack shows on its own.
EXPECTED = {
    "sack-apparmor": {
        "tele_speed": _ALWAYS,
        "tele_audio": _ALWAYS,
        "tele_door": _ALWAYS,
        "media_file": _ALWAYS,
        "nav_file": _ALWAYS,
        "vol_get": _ALWAYS,
        "vol_set": _PARKED_ONLY,
        "ign_start": _PARKED_ONLY,
        "ign_stop": _PARKED_ONLY,
        "koffee_door": _NEVER,
        "koffee_window": _NEVER,
        "rescue_lock": _EMERGENCY_ONLY,
    },
    "sack-independent": {
        "tele_speed": _ALWAYS,
        "tele_audio": _ALWAYS,
        "tele_door": _ALWAYS,
        "media_file": _ALWAYS,
        "nav_file": _ALWAYS,
        "vol_get": _ALWAYS,
        "vol_set": _PARKED_ONLY,
        "ign_start": _PARKED_ONLY,
        "ign_stop": _PARKED_ONLY,
        "koffee_door": _NEVER,
        "koffee_window": _NEVER,
        "rescue_lock": _EMERGENCY_ONLY,
    },
}


def probe_for(old_state: str, new_state: str) -> str:
    """The situation-churn probe whose decision tells *old* from *new*."""
    if EMERGENCY in (old_state, new_state):
        return "rescue_lock"
    return "vol_set"


#: Fleet fingerprints of one round of the default fleet workload (64
#: vehicles, 24 epochs), by benchmark seed, recorded with
#: ``perfbench/pin_fleet.py 0 31``.  The process backend must reproduce
#: the serial pin.  Seed 7919 is held out for claims and deliberately
#: unpinned; an unpinned seed is checked for invariants, for identical
#: fingerprints in every round and, on the process backend, for equality
#: with a serial reference round.
FLEET_PINS = {
    0: "843376bc9275dcd597d24a3a24db374299c7dcfd73a679d7cd81da5da8221d14",
    1: "8fb6f738207a812f7ab9c2dface4218e94b7006b9593e1de44274412e2c6ae81",
    2: "3f0de1e8f6d43a22f1a3e85a3770217816045335fa88f9d6539b80b5f30e1343",
    3: "d50486a40ae407470be2b52918d7bcc6e75fc9a5510076cec0ae1cdd91f2a75a",
    4: "ce59867e958cf8d600a104bb76fe10bd48c46028b073392a5bec485028abe5ac",
    5: "85e479b07dfd148b0d641331409f13550cb2295417efa6eaa87e4dc90bf6db57",
    6: "15d9a46752fb67321ede6d9aa399c4a3ad93b766b5c7ef3d729ed64c5524015c",
    7: "7e35ce9100cb47a9bd645f160a44bdf11efbd90b8ce645d46211b709c54af5d9",
    8: "5c1c27d9cfebcded2fcf1eafc1424b702d5ad5af5d02a136f9872deef63c6e97",
    9: "fefefed8e80120f3f3a1160930a35b5195cc198c8608bc78e43d8c872a93780b",
    10: "6a22ebf18b689cb9359440db0a8f1158d2bfe8beaed3a6082d10c612d23de486",
    11: "4d67437909d6473b5b3f10c4470ba4aa053b7f0f4a6dde90acd9c9c539ef9371",
    12: "3791a161122cbc5bc4626ab87e110193eb5982080ce3182f99f017b1f11e9955",
    13: "5b9ddcccbb71bf3f0d1ad38042dff9d93b722a6862eaae672bb06979a4ba5d9a",
    14: "15f83c02507ea99c0793281284def9f3389dff6d890cb92b6544ab11b69f301e",
    15: "299ef7a6c956190309abdadd3e757d9d6ecab3cbc5336adfa63ac5faa255c1ae",
    16: "2d9a3a66dac8fe9950a7be9b6059e8a5e1a74ca218f1c7fdcd62ececa0be6b21",
    17: "83e1589320ad69d8c9a04c608ef9ff8f9d108f2f311ea2cb41562df33eeb9596",
    18: "a6f5893454e2b3be07b7e3d3a559f4153191de8bf5ecc71387cbb00bd073d6cd",
    19: "d5058760e266527a99835815559ea82f4b34ffc4aa2df881babcdeacba2f6546",
    20: "b7ac57b338a97b0e8e7e58f986dd0922058c1ebbde945c75b4154ede01667794",
    21: "8b1ce63b5799311449be6dc72b5e678404354a38a407086c5b4bd03aa46d24b2",
    22: "8baba55173cef5cdd8c509b9c56f1bee9facf3b1d5a5829ad8f6b4412e32d3a2",
    23: "fd94581af0a44eb3ad0ae8f12c9419f6a7aed2f9e8dedeacc500f69e54c9fbf9",
    24: "65fbffaa7c05c73352a40aa7ccd49d91cd393f6df12ab10825ca4f4ec8428447",
    25: "fa1ced153d9e59cdeb09eb43411be637ff30b1f94760d41ced0164eeaf9623d7",
    26: "0098af0d77139a88a4fa5a7e3961dcb143b500be67d950fc5048820d2ee855e7",
    27: "23777a0713c0c4e44b87d4faa909df63b1ee4ecf0a80bf3b095688bcc1be3148",
    28: "253c59f13f12019b7839bce72ec790868d150c216182a05457c18a07a546d199",
    29: "58984189e33eb2690038c95a0d2cea21b90b160eec8abe720e9beadbd4435aa8",
    30: "c9baf364838c03ed2a34574533c7d114c0971e72346fe986daa112977d3c8c87",
    31: "c2bf394040be84d857eef885955f7c1eb78f2e44d383f286f7e7d253a1df6c74",
}
