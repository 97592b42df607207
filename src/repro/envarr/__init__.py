"""Import-path alias only (:mod:`repro.envarr.env`); see DESIGN.md Sec. 15."""
