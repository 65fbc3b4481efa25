"""The 19-channel 10-20 montage used throughout the pipeline.

Channel order is fixed: ``edf.read_montage`` and ``edf.select_channels`` put
every recording's rows in this order, and the signal chain after them reads
channels by row, not by label.  Artifact rejection reads Cz at ``CZ_INDEX`` (17) and the awake-epoch
heuristic reads O1/O2 at ``O1_INDEX``/``O2_INDEX`` (7/15).
"""

CHANNELS = (
    "Fp1", "F3", "F7", "C3", "T7", "P3", "P7", "O1",
    "Fp2", "F4", "F8", "C4", "T8", "P4", "P8", "O2",
    "Fz", "Cz", "Pz",
)

O1_INDEX = CHANNELS.index("O1")
O2_INDEX = CHANNELS.index("O2")
CZ_INDEX = CHANNELS.index("Cz")

# schematic head coordinates (unit head radius, nose up) for topographic plots
ELECTRODE_COORDS = {
    "Fp1": (-0.31, 0.95),
    "Fp2": (0.31, 0.95),
    "F7": (-0.81, 0.59),
    "F8": (0.81, 0.59),
    "F3": (-0.40, 0.52),
    "F4": (0.40, 0.52),
    "Fz": (0.00, 0.50),
    "T7": (-1.00, 0.00),
    "T8": (1.00, 0.00),
    "C3": (-0.50, 0.00),
    "C4": (0.50, 0.00),
    "Cz": (0.00, 0.00),
    "P7": (-0.81, -0.59),
    "P8": (0.81, -0.59),
    "P3": (-0.40, -0.52),
    "P4": (0.40, -0.52),
    "Pz": (0.00, -0.50),
    "O1": (-0.31, -0.95),
    "O2": (0.31, -0.95),
}
