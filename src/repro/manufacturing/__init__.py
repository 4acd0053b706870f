"""Simulated additive-manufacturing testbed (substitute for the paper's
physical 3D printer, contact microphone, and anechoic chamber).
"""

from repro.manufacturing.gcode import (
    AXIS_LETTERS,
    GCodeCommand,
    GCodeProgram,
    parse_line,
)
from repro.manufacturing.steppers import (
    AcousticSignature,
    StepperMotor,
    default_motors,
)
from repro.manufacturing.kinematics import (
    MachineConfig,
    MotionPlanner,
    MotionSegment,
)
from repro.manufacturing.acoustics import (
    AcousticSynthesizer,
    AnechoicChamber,
    ContactMicrophone,
)
from repro.manufacturing.printer import Printer3D, PrintRun
from repro.manufacturing.programs import (
    calibration_suite,
    circle_program,
    layered_object_program,
    random_single_motor_sequence,
    rectangle_program,
    single_motor_program,
)
from repro.manufacturing.traces import (
    MIN_SEGMENT_DURATION,
    RecordedSegment,
    build_dataset,
    collect_segments,
    record_case_study_dataset,
)
from repro.manufacturing.wav import read_wav, write_wav
from repro.manufacturing.architecture import (
    GCODE_FLOW,
    MONITORED_EMISSIONS,
    monitored_flow_names,
    printer_architecture,
)

__all__ = [
    "AXIS_LETTERS",
    "AcousticSignature",
    "AcousticSynthesizer",
    "AnechoicChamber",
    "ContactMicrophone",
    "GCODE_FLOW",
    "GCodeCommand",
    "GCodeProgram",
    "MIN_SEGMENT_DURATION",
    "MONITORED_EMISSIONS",
    "MachineConfig",
    "MotionPlanner",
    "MotionSegment",
    "Printer3D",
    "PrintRun",
    "RecordedSegment",
    "StepperMotor",
    "build_dataset",
    "calibration_suite",
    "circle_program",
    "collect_segments",
    "default_motors",
    "layered_object_program",
    "monitored_flow_names",
    "parse_line",
    "printer_architecture",
    "random_single_motor_sequence",
    "record_case_study_dataset",
    "read_wav",
    "rectangle_program",
    "single_motor_program",
    "write_wav",
]
